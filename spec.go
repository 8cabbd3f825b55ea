package p2h

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"p2h/internal/core"
)

// Validation errors of the error-returning entry points (New, Open, Save,
// Load). The panicking Search surface runs the same checks and panics with the
// same text.
var (
	// ErrDimMismatch reports inputs whose dimensionalities do not line up:
	// a query of the wrong length, a Spec.Dim contradicting the data
	// matrix, batch queries not matching the index.
	ErrDimMismatch = core.ErrDimMismatch
	// ErrZeroNormal reports a hyperplane query whose normal is the zero
	// vector.
	ErrZeroNormal = core.ErrZeroNormal
)

// Canonical kind names of the index backends, as accepted by Spec.Kind and
// written into saved index containers. Kinds() lists them; short aliases
// ("bc", "ball", "kd", "scan", "shard", "dyn") resolve to these.
// KindQuantizedScan is not a kind of its own but a name of KindLinearScan
// (so are "quant" and "qscan"), kept so that specs and daemon configs
// naming the retired 8-bit scan still build the exact scan.
const (
	KindBallTree      = "balltree"
	KindBCTree        = "bctree"
	KindKDTree        = "kdtree"
	KindNH            = "nh"
	KindFH            = "fh"
	KindLinearScan    = "linearscan"
	KindQuantizedScan = "quantizedscan"
	KindSharded       = "sharded"
	KindDynamic       = "dynamic"
)

// Spec declares an index: which backend to build (Kind) plus the tuning
// fields the backend reads. Fields a kind does not use are ignored, so one
// Spec literal — or one JSON document, via the struct tags — can be moved
// between kinds while tuning. The zero value of every field selects that
// kind's documented default.
//
// Spec is the portable configuration surface of the library: p2h.New builds
// any kind from it, the cmd/ tools accept it as -spec JSON, and
// p2h.Save embeds it into the container header so a saved index describes
// itself.
type Spec struct {
	// Kind names the index backend (see the Kind* constants and Kinds()).
	Kind string `json:"kind"`

	// LeafSize is the tree kinds' maximum leaf size N0 (zero: 100).
	LeafSize int `json:"leaf_size,omitempty"`
	// Seed makes randomized construction deterministic.
	Seed int64 `json:"seed,omitempty"`
	// Deprecated: Quantize is ignored by every kind. It once made the tree
	// kinds keep an 8-bit mirror of their leaf blocks, which added 7.3 times
	// a BC tree's index bytes and did not pay for them (docs/TUNING.md). The
	// name stays so that specs and daemon configs that set it still decode
	// and build the same index; a saved container does not record it.
	Quantize bool `json:"quantize,omitempty"`

	// Lambda is NH/FH's sampled transform dimension (zero: 2*(Dim+1)).
	Lambda int `json:"lambda,omitempty"`
	// M is NH/FH's number of hash projections (zero: 64).
	M int `json:"m,omitempty"`
	// L is NH's collision / FH's separation threshold (zero: 2).
	L int `json:"l,omitempty"`
	// B is FH's norm partition ratio in (0,1) (zero: 0.9).
	B float64 `json:"b,omitempty"`

	// Shards is the sharded kind's partition count (zero: GOMAXPROCS).
	Shards int `json:"shards,omitempty"`
	// Workers bounds the sharded kind's per-query goroutines (zero:
	// min(Shards, GOMAXPROCS)).
	Workers int `json:"workers,omitempty"`

	// Dim is the data dimensionality, required by the dynamic kind when
	// starting empty (data == nil); other kinds take it from the data and
	// reject a contradicting value.
	Dim int `json:"dim,omitempty"`
	// CompactFraction is the dynamic kind's fold threshold (zero: 0.25): once
	// the rows inserted since the last fold plus the tombstones exceed this
	// fraction of the live set, the delta is folded into a fresh tree —
	// inline, by the Insert or Delete that crossed it, or off-thread when a
	// server runs with ServerOptions.BackgroundCompaction. A JSON spec that
	// sets the retired "rebuild_fraction" key is refused with a message
	// naming this one.
	CompactFraction float64 `json:"compact_fraction,omitempty"`
}

// UnmarshalJSON decodes a JSON spec strictly: a key that names no field is
// refused — a typo'd tuning key must fail, not run with the default — and the
// retired "rebuild_fraction" with a message naming its replacement (see
// CompactFraction).
func (s *Spec) UnmarshalJSON(b []byte) error {
	var v struct {
		plainSpec
		RebuildFraction *float64 `json:"rebuild_fraction"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return fmt.Errorf("p2h: spec: %w", err)
	}
	if v.RebuildFraction != nil {
		return errors.New(`p2h: spec key "rebuild_fraction" is retired: the dynamic kind has one fold threshold, "compact_fraction" (default 0.25), for inline rebuilds and background compaction alike`)
	}
	*s = Spec(v.plainSpec)
	return nil
}

// plainSpec is Spec without its methods: encoding/json decodes it field by
// field, ignoring keys it does not know.
type plainSpec Spec

// New builds an index declared by spec over the rows of data — with Open and
// Load, the only way to obtain one. The kind is resolved through the kind
// table (ErrUnknownKind if it names none) and malformed input returns an error
// instead of panicking. What comes back implements Index and for three kinds
// asserts to a type with more methods: *Dynamic, *Sharded, *LinearScan.
//
// data may be nil or empty only for the dynamic kind, which then starts empty
// and needs Spec.Dim.
func New(data *Matrix, spec Spec) (Index, error) {
	k, err := lookupKind(spec.Kind)
	if err != nil {
		return nil, err
	}
	var lifted *Matrix
	d := spec.Dim
	switch {
	case data != nil && data.N > 0:
		// The dimensionality comes from the data; a Spec.Dim that
		// contradicts it is a config/data mix-up worth surfacing.
		if data.D <= 0 {
			return nil, fmt.Errorf("%w: %s: data matrix has dimension %d", ErrDimMismatch, k.name, data.D)
		}
		if d != 0 && d != data.D {
			return nil, fmt.Errorf("%w: %s: Spec.Dim %d contradicts data dimension %d",
				ErrDimMismatch, k.name, d, data.D)
		}
		lifted, d = data.AppendOnes(), data.D
	case !k.emptyStart:
		return nil, fmt.Errorf("p2h: %s: index construction needs a non-empty data matrix", k.name)
	case d <= 0:
		return nil, fmt.Errorf("%w: %s: empty start requires a positive Spec.Dim", ErrDimMismatch, k.name)
	}
	return k.index(k.build(lifted, d, spec), d), nil
}
