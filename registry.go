package p2h

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"p2h/internal/balltree"
	"p2h/internal/dynamic"
	"p2h/internal/fh"
	"p2h/internal/kdtree"
	"p2h/internal/linearscan"
	"p2h/internal/nh"
	"p2h/internal/quant"
	"p2h/internal/shard"
)

// ErrUnknownKind is returned by New, Open, Load and Inspect when Spec.Kind (or
// a container's kind tag) names no index kind.
var ErrUnknownKind = errors.New("p2h: unknown index kind")

// kind is one row of the kind table: how an index kind is built from a Spec
// and — for the persistable kinds — how it is written, restored and described.
type kind struct {
	name    string   // canonical, lower-case; see the Kind* constants
	aliases []string // alternative names resolving to this kind

	// build constructs the inner index over the lifted rows, which it may
	// keep. lifted is nil only for an emptyStart kind given no data; dim is
	// the raw dimensionality either way.
	build func(lifted *Matrix, dim int, spec Spec) inner
	// emptyStart marks a kind that builds from no data, given Spec.Dim.
	emptyStart bool
	// nativePred marks a kind whose inner index evaluates SearchOptions.Pred
	// itself, over attributes it keeps; for the rest the handle folds the
	// predicate into a Filter over the store attached to it.
	nativePred bool
	// wrap puts the exported type users assert to around the handle; nil for
	// a kind that adds no method to Index and BatchIndex.
	wrap func(h handle) Index

	// The codec of a persistable kind, all four set or all nil: save writes
	// the payload (the bytes after the container header) and load restores it
	// (spec is the header's), specOf recovers the Spec a container records
	// (construction-only fields such as Seed may stay zero), and shape reads a
	// payload's point count and stored dimensionality off its prefix.
	save   func(w io.Writer, in inner) error
	load   func(r io.Reader, spec Spec) (loadedIndex, error)
	specOf func(in inner) Spec
	shape  func(r io.Reader) (n, lifted int, err error)
	// buildOnly says why a kind without a codec has none. Exactly one of load
	// and buildOnly is set.
	buildOnly string
}

// loadedIndex is what a payload loader returns: the inner index, which reports
// the (lifted) dimensionality the payload stored.
type loadedIndex interface {
	inner
	Dim() int
}

// index wraps a built or loaded inner index of this kind over raw
// d-dimensional points in what New, Open and Load hand out.
func (k *kind) index(in inner, d int) Index {
	h := handle{kind: k, in: in, raw: d}
	if k.wrap != nil {
		return k.wrap(h)
	}
	if _, ok := in.(batchInner); ok {
		return &batchHandle{h}
	}
	return &h
}

// arenaKind is one of the two kinds backed by internal/balltree: they differ
// in the balltree.Kind handed to the builder and the codec, and in the
// exported type around the handle, nothing else.
func arenaKind(name, alias string, tk balltree.Kind, wrap func(handle) Index) *kind {
	return &kind{
		name: name, aliases: []string{alias}, nativePred: true, wrap: wrap,
		build: func(x *Matrix, _ int, s Spec) inner {
			return balltree.BuildOwned(x, nil, tk, balltree.Config{LeafSize: s.LeafSize, Seed: s.Seed, Quantize: s.Quantize})
		},
		save: func(w io.Writer, in inner) error { return in.(*balltree.Tree).Save(w) },
		load: func(r io.Reader, _ Spec) (loadedIndex, error) { return balltree.Load(r, tk, 0) },
		specOf: func(in inner) Spec {
			t := in.(*balltree.Tree)
			return Spec{LeafSize: t.LeafSize(), Quantize: t.Quantized()}
		},
		shape: func(r io.Reader) (int, int, error) { return balltree.ReadShape(r, tk) },
	}
}

// hashBuildOnly is why neither hashing baseline has a codec.
const hashBuildOnly = "randomized hash tables are cheaper to rebuild from the data (deterministic in Seed) than to store"

// kinds is the kind table, in name order. It is fixed at compile time: every
// place a kind name is accepted (New, Open, the cmd/ tools' -index and -spec
// flags) resolves through it.
var kinds = []*kind{
	arenaKind(KindBallTree, "ball", balltree.Ball, func(h handle) Index {
		return &BallTree{batchHandle{h}, h.in.(*balltree.Tree)}
	}),
	arenaKind(KindBCTree, "bc", balltree.BC, nil),
	{
		name: KindDynamic, aliases: []string{"dyn"}, emptyStart: true, nativePred: true,
		build: func(x *Matrix, d int, s Spec) inner {
			cfg := dynamic.Config{
				LeafSize: s.LeafSize, Seed: s.Seed,
				RebuildFraction: s.RebuildFraction, CompactFraction: s.CompactFraction,
			}
			if x == nil {
				return dynamic.New(d+1, cfg)
			}
			return dynamic.NewFromMatrix(x, cfg)
		},
		wrap: func(h handle) Index { return &Dynamic{h, h.in.(*dynamic.Index)} },
		save: func(w io.Writer, in inner) error { return in.(*dynamic.Index).Save(w) },
		load: func(r io.Reader, spec Spec) (loadedIndex, error) {
			ix, err := dynamic.Load(r)
			// The payload format predates CompactFraction; the container
			// header's Spec carries it across Save/Load.
			if err == nil && spec.CompactFraction > 0 {
				ix.SetCompactFraction(spec.CompactFraction)
			}
			return ix, err
		},
		specOf: func(in inner) Spec {
			ix := in.(*dynamic.Index)
			cfg := ix.Configuration()
			return Spec{
				LeafSize: cfg.LeafSize, Seed: cfg.Seed, Dim: ix.Dim() - 1,
				RebuildFraction: cfg.RebuildFraction, CompactFraction: cfg.CompactFraction,
			}
		},
		shape: dynamic.ReadShape,
	},
	{
		name: KindFH, buildOnly: hashBuildOnly,
		build: func(x *Matrix, _ int, s Spec) inner {
			return fh.Build(x, fh.Config{Lambda: s.Lambda, M: s.M, L: s.L, B: s.B, Seed: s.Seed})
		},
	},
	{
		name: KindKDTree, aliases: []string{"kd"},
		buildOnly: "a baseline no workload serves: median splits rebuild deterministically from the data; persist the data with SaveFvecs instead",
		build: func(x *Matrix, _ int, s Spec) inner {
			return kdtree.Build(x, kdtree.Config{LeafSize: s.LeafSize})
		},
	},
	{
		name: KindLinearScan, aliases: []string{"scan", "linear"},
		buildOnly: "holds nothing beyond the data matrix; persist the data with SaveFvecs instead",
		build:     func(x *Matrix, _ int, _ Spec) inner { return linearscan.New(x) },
		wrap:      func(h handle) Index { return &LinearScan{batchHandle{h}} },
	},
	{
		name: KindNH, buildOnly: hashBuildOnly,
		build: func(x *Matrix, _ int, s Spec) inner {
			return nh.Build(x, nh.Config{Lambda: s.Lambda, M: s.M, L: s.L, Seed: s.Seed})
		},
	},
	{
		name: KindQuantizedScan, aliases: []string{"quant", "qscan"},
		buildOnly: "codes are derived from the data deterministically; persist the data with SaveFvecs instead",
		build:     func(x *Matrix, _ int, _ Spec) inner { return quant.NewScan(x) },
	},
	{
		name: KindSharded, aliases: []string{"shard"}, nativePred: true,
		build: func(x *Matrix, _ int, s Spec) inner {
			return shard.Build(x, shard.Config{
				Shards: s.Shards, LeafSize: s.LeafSize, Seed: s.Seed, Workers: s.Workers, Quantize: s.Quantize,
			})
		},
		wrap: func(h handle) Index { return &Sharded{batchHandle{h}, h.in.(*shard.Index)} },
		save: func(w io.Writer, in inner) error { return in.(*shard.Index).Save(w) },
		load: func(r io.Reader, _ Spec) (loadedIndex, error) { return shard.Load(r) },
		specOf: func(in inner) Spec {
			ix := in.(*shard.Index)
			return Spec{LeafSize: ix.LeafSize(), Shards: ix.Shards(), Workers: ix.Workers(), Quantize: ix.Quantized()}
		},
		shape: shard.ReadShape,
	},
}

// lookupKind resolves a kind name or alias, case-insensitively.
func lookupKind(name string) (*kind, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	for _, k := range kinds {
		if k.name == n || slices.Contains(k.aliases, n) {
			return k, nil
		}
	}
	return nil, fmt.Errorf("%w %q (known: %s)", ErrUnknownKind, name, strings.Join(Kinds(), ", "))
}

// Kinds returns the canonical names of every index kind, sorted.
func Kinds() []string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.name
	}
	return names
}

// KindOf reports the kind name of an index New, Open or Load returned, or ""
// for an Index implemented elsewhere.
func KindOf(ix Index) string {
	if w, ok := ix.(wrapped); ok {
		return w.base().kind.name
	}
	return ""
}

// KindIsPersistable reports whether the named kind round-trips through
// Save/Load; for build-only kinds the second result documents why not.
func KindIsPersistable(name string) (persistable bool, buildOnly string, err error) {
	k, err := lookupKind(name)
	if err != nil {
		return false, "", err
	}
	return k.load != nil, k.buildOnly, nil
}
