package p2h

import (
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
// ("bc", "ball", "kd", "scan", "quant", "shard", "dyn") resolve to these.
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
	// Quantize makes the balltree, bctree and sharded kinds store an 8-bit
	// quantized mirror of their leaf blocks and filter leaf rows through its
	// exact error bound before float verification. Results are unchanged (the
	// filter is conservative); exact unfiltered searches get cheaper leaf
	// scans for one more byte per stored coordinate: +25% on the float32
	// point copy, which is the bulk of a tree's footprint. The dynamic kind
	// ignores it: its snapshot is rebuilt incrementally and would invalidate
	// the mirror on every insert batch. See docs/TUNING.md.
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
	// RebuildFraction is the dynamic kind's rebuild trigger (zero: 0.25).
	RebuildFraction float64 `json:"rebuild_fraction,omitempty"`
	// CompactFraction is the dynamic kind's background-compaction trigger,
	// used instead of RebuildFraction when a server runs with
	// ServerOptions.BackgroundCompaction (zero: RebuildFraction). Keeping
	// the two distinct lets a serving deployment defer inline rebuilds
	// (large RebuildFraction) while compacting off-thread at a tighter
	// threshold.
	CompactFraction float64 `json:"compact_fraction,omitempty"`
}

// New builds an index declared by spec over the rows of data — with Open and
// Load, the only way to obtain one. The kind is resolved through the kind
// table (ErrUnknownKind if it names none) and malformed input returns an error
// instead of panicking. What comes back implements Index, BatchIndex when the
// kind has a batched path of its own, and for four kinds asserts to a type
// with more methods: *BallTree, *Dynamic, *Sharded, *LinearScan.
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
