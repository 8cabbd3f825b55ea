package p2h

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"p2h/internal/balltree"
	"p2h/internal/dynamic"
	"p2h/internal/fh"
	"p2h/internal/kdtree"
	"p2h/internal/linearscan"
	"p2h/internal/nh"
	"p2h/internal/quant"
	"p2h/internal/shard"
)

// ErrUnknownKind is returned by New, Open and Load when Spec.Kind (or a
// container's kind tag) names no registered index backend.
var ErrUnknownKind = errors.New("p2h: unknown index kind")

// IndexKind describes one index backend to the registry: how to build it
// from a Spec and — for persistable kinds — how to serialize and restore it.
// The built-in kinds register themselves at init; RegisterKind adds new
// backends, which then work everywhere a kind name is accepted (p2h.New,
// p2h.Open, the cmd/ tools' -index and -spec flags).
type IndexKind struct {
	// Name is the canonical kind name (lowercase; see the Kind* constants).
	Name string
	// Aliases are alternative names resolving to this kind.
	Aliases []string
	// Description is a one-line summary for tool usage strings.
	Description string

	// Build constructs the index. It must validate its inputs and return
	// errors rather than panic.
	Build func(data *Matrix, spec Spec) (Index, error)

	// Save writes the index payload (the bytes following the container
	// header). Nil marks a build-only kind; BuildOnly must then say why.
	Save func(w io.Writer, ix Index) error
	// Load restores a payload written by Save. spec is the Spec recorded
	// in the container header (informational for self-contained payloads).
	Load func(r io.Reader, spec Spec) (Index, error)
	// Owns reports whether ix is an instance of this kind; it backs
	// KindOf and the Save dispatch. Required when Save is set.
	Owns func(ix Index) bool
	// SpecOf reconstructs the Spec recorded in a saved container from a
	// built index (construction-only fields such as Seed are not
	// recoverable and stay zero). Required when Save is set.
	SpecOf func(ix Index) Spec

	// BuildOnly documents why the kind has no persistence (for example
	// "cheaper to rebuild than to store"). Exactly one of Load/BuildOnly
	// must be set: every registered kind either round-trips through
	// Save/Load or carries this marker.
	BuildOnly string
}

// registry maps kind names (and aliases) to their descriptors. Guarded by a
// mutex so RegisterKind is safe from init functions and tests.
var registry = struct {
	sync.RWMutex
	kinds map[string]*IndexKind // canonical name -> kind
	alias map[string]string     // alias -> canonical name
}{
	kinds: make(map[string]*IndexKind),
	alias: make(map[string]string),
}

// normalizeKindName canonicalizes user-supplied kind names.
func normalizeKindName(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// RegisterKind adds an index backend to the registry. It returns an error on
// an invalid descriptor (missing Name or Build, persistence hooks half-set,
// neither loader nor BuildOnly marker) or a name collision. Registered kinds
// are immediately usable by New, Open, Save and the cmd/ tools.
func RegisterKind(k IndexKind) error {
	k.Name = normalizeKindName(k.Name)
	if k.Name == "" {
		return errors.New("p2h: RegisterKind: empty kind name")
	}
	if k.Build == nil {
		return fmt.Errorf("p2h: RegisterKind %q: Build is required", k.Name)
	}
	if (k.Save == nil) != (k.Load == nil) {
		return fmt.Errorf("p2h: RegisterKind %q: Save and Load must both be set or both nil", k.Name)
	}
	if k.Save != nil && (k.Owns == nil || k.SpecOf == nil) {
		return fmt.Errorf("p2h: RegisterKind %q: persistable kinds require Owns and SpecOf", k.Name)
	}
	if k.Load == nil && k.BuildOnly == "" {
		return fmt.Errorf("p2h: RegisterKind %q: kinds without a loader must document BuildOnly", k.Name)
	}
	if k.Load != nil && k.BuildOnly != "" {
		return fmt.Errorf("p2h: RegisterKind %q: BuildOnly set on a persistable kind", k.Name)
	}

	registry.Lock()
	defer registry.Unlock()
	names := append([]string{k.Name}, k.Aliases...)
	for i, name := range names {
		names[i] = normalizeKindName(name)
		if _, dup := registry.kinds[names[i]]; dup {
			return fmt.Errorf("p2h: RegisterKind %q: name %q already registered", k.Name, names[i])
		}
		if _, dup := registry.alias[names[i]]; dup {
			return fmt.Errorf("p2h: RegisterKind %q: name %q already registered as an alias", k.Name, names[i])
		}
	}
	registry.kinds[k.Name] = &k
	for _, a := range names[1:] {
		registry.alias[a] = k.Name
	}
	return nil
}

// mustRegisterKind backs the built-in registrations.
func mustRegisterKind(k IndexKind) {
	if err := RegisterKind(k); err != nil {
		panic(err)
	}
}

// lookupKind resolves a kind name or alias.
func lookupKind(name string) (*IndexKind, error) {
	n := normalizeKindName(name)
	registry.RLock()
	defer registry.RUnlock()
	if canon, ok := registry.alias[n]; ok {
		n = canon
	}
	if k, ok := registry.kinds[n]; ok {
		return k, nil
	}
	return nil, fmt.Errorf("%w %q (registered: %s)", ErrUnknownKind, name, strings.Join(kindNamesLocked(), ", "))
}

// kindOwning finds the registered kind an index instance belongs to.
func kindOwning(ix Index) *IndexKind {
	registry.RLock()
	defer registry.RUnlock()
	for _, name := range kindNamesLocked() {
		k := registry.kinds[name]
		if k.Owns != nil && k.Owns(ix) {
			return k
		}
	}
	return nil
}

// kindNamesLocked returns the sorted canonical names; callers hold the lock.
func kindNamesLocked() []string {
	names := make([]string, 0, len(registry.kinds))
	for name := range registry.kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Kinds returns the sorted canonical names of every registered index kind.
func Kinds() []string {
	registry.RLock()
	defer registry.RUnlock()
	return kindNamesLocked()
}

// KindOf reports the registered kind name of a built index, or "" when no
// registered kind owns it.
func KindOf(ix Index) string {
	if k := kindOwning(ix); k != nil {
		return k.Name
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
	return k.Load != nil, k.BuildOnly, nil
}

// arenaKind describes one of the two kinds backed by internal/balltree: they
// differ in the balltree.Kind handed to Build and Load and in the exported
// type wrap puts around the shared arenaIndex, nothing else.
func arenaKind[T Index](name, alias string, kind balltree.Kind, desc string, wrap func(arenaIndex) T) IndexKind {
	return IndexKind{
		Name:        name,
		Aliases:     []string{alias},
		Description: desc,
		Build: func(data *Matrix, spec Spec) (Index, error) {
			if err := checkBuildData(name, data, spec); err != nil {
				return nil, err
			}
			tree := balltree.BuildOwned(data.AppendOnes(), nil, kind, balltree.Config{
				LeafSize: spec.LeafSize, Seed: spec.Seed, Quantize: spec.Quantize,
			})
			return wrap(arenaIndex{tree: tree, raw: data.D}), nil
		},
		Save: func(w io.Writer, ix Index) error { return ix.(arenaBacked).arena().Save(w) },
		Load: func(r io.Reader, _ Spec) (Index, error) {
			tree, err := balltree.Load(r, kind, 0)
			if err != nil {
				return nil, err
			}
			return wrap(arenaIndex{tree: tree, raw: tree.Dim() - 1}), nil
		},
		Owns: func(ix Index) bool { _, ok := ix.(T); return ok },
		SpecOf: func(ix Index) Spec {
			t := ix.(arenaBacked).arena()
			return Spec{Kind: name, LeafSize: t.LeafSize(), Quantize: t.Quantized()}
		},
	}
}

// The built-in backends. Each Build owns the validation and construction
// that used to live in its New* constructor; the constructors are now thin
// panicking wrappers over New, so the registry is the only construction
// path.
func init() {
	mustRegisterKind(arenaKind(KindBallTree, "ball", balltree.Ball,
		"the paper's Ball-Tree branch-and-bound index (Section III)",
		func(a arenaIndex) *BallTree { return &BallTree{a} }))
	mustRegisterKind(arenaKind(KindBCTree, "bc", balltree.BC,
		"BC-Tree: Ball-Tree plus point-level ball/cone bounds (Section IV)",
		func(a arenaIndex) *BCTree { return &BCTree{a} }))

	mustRegisterKind(IndexKind{
		Name:        KindKDTree,
		Aliases:     []string{"kd"},
		Description: "KD-Tree bounding-box alternative (the paper's Section III-A ablation)",
		Build: func(data *Matrix, spec Spec) (Index, error) {
			if err := checkBuildData(KindKDTree, data, spec); err != nil {
				return nil, err
			}
			tree := kdtree.Build(data.AppendOnes(), kdtree.Config{LeafSize: spec.LeafSize})
			return &KDTree{tree: tree, raw: data.D}, nil
		},
		Owns:      func(ix Index) bool { _, ok := ix.(*KDTree); return ok },
		BuildOnly: "a baseline no workload serves: median splits rebuild deterministically from the data; persist the data with SaveFvecs instead",
	})

	mustRegisterKind(IndexKind{
		Name:        KindSharded,
		Aliases:     []string{"shard"},
		Description: "parallel BC-Tree: compact shards searched over a goroutine pool",
		Build: func(data *Matrix, spec Spec) (Index, error) {
			if err := checkBuildData(KindSharded, data, spec); err != nil {
				return nil, err
			}
			ix := shard.Build(data.AppendOnes(), shard.Config{
				Shards:   spec.Shards,
				LeafSize: spec.LeafSize,
				Seed:     spec.Seed,
				Workers:  spec.Workers,
				Quantize: spec.Quantize,
			})
			return &Sharded{index: ix, raw: data.D}, nil
		},
		Save: func(w io.Writer, ix Index) error { return ix.(*Sharded).index.Save(w) },
		Load: func(r io.Reader, _ Spec) (Index, error) {
			ix, err := shard.Load(r)
			if err != nil {
				return nil, err
			}
			return &Sharded{index: ix, raw: ix.Dim() - 1}, nil
		},
		Owns: func(ix Index) bool { _, ok := ix.(*Sharded); return ok },
		SpecOf: func(ix Index) Spec {
			t := ix.(*Sharded)
			return Spec{
				Kind:     KindSharded,
				LeafSize: t.index.LeafSize(),
				Shards:   t.index.Shards(),
				Workers:  t.index.Workers(),
				Quantize: t.index.Quantized(),
			}
		},
	})

	mustRegisterKind(IndexKind{
		Name:        KindDynamic,
		Aliases:     []string{"dyn"},
		Description: "mutable BC-Tree: snapshot plus insert buffer and tombstones",
		Build: func(data *Matrix, spec Spec) (Index, error) {
			cfg := dynamic.Config{
				LeafSize:        spec.LeafSize,
				Seed:            spec.Seed,
				RebuildFraction: spec.RebuildFraction,
				CompactFraction: spec.CompactFraction,
			}
			d := spec.Dim
			if data != nil && data.N > 0 {
				if d != 0 && d != data.D {
					return nil, fmt.Errorf("%w: dynamic: Spec.Dim %d contradicts data dimension %d",
						ErrDimMismatch, d, data.D)
				}
				d = data.D
			}
			if d <= 0 {
				return nil, fmt.Errorf("%w: dynamic: empty start requires a positive Spec.Dim",
					ErrDimMismatch)
			}
			if data == nil || data.N == 0 {
				return &Dynamic{index: dynamic.New(d+1, cfg), raw: d}, nil
			}
			return &Dynamic{index: dynamic.NewFromMatrix(data.AppendOnes(), cfg), raw: data.D}, nil
		},
		Save: func(w io.Writer, ix Index) error { return ix.(*Dynamic).index.Save(w) },
		Load: func(r io.Reader, spec Spec) (Index, error) {
			ix, err := dynamic.Load(r)
			if err != nil {
				return nil, err
			}
			// The payload format predates CompactFraction; the container
			// header's Spec carries it across Save/Load.
			if spec.CompactFraction > 0 {
				ix.SetCompactFraction(spec.CompactFraction)
			}
			return &Dynamic{index: ix, raw: ix.Dim() - 1}, nil
		},
		Owns: func(ix Index) bool { _, ok := ix.(*Dynamic); return ok },
		SpecOf: func(ix Index) Spec {
			t := ix.(*Dynamic)
			cfg := t.index.Configuration()
			return Spec{
				Kind:            KindDynamic,
				LeafSize:        cfg.LeafSize,
				Seed:            cfg.Seed,
				RebuildFraction: cfg.RebuildFraction,
				CompactFraction: cfg.CompactFraction,
				Dim:             t.raw,
			}
		},
	})

	mustRegisterKind(IndexKind{
		Name:        KindNH,
		Description: "NH nearest-hyperplane hashing baseline (SIGMOD 2021)",
		Build: func(data *Matrix, spec Spec) (Index, error) {
			if err := checkBuildData(KindNH, data, spec); err != nil {
				return nil, err
			}
			ix := nh.Build(data.AppendOnes(), nh.Config{
				Lambda: spec.Lambda, M: spec.M, L: spec.L, Seed: spec.Seed,
			})
			return &NH{index: ix, raw: data.D}, nil
		},
		Owns:      func(ix Index) bool { _, ok := ix.(*NH); return ok },
		BuildOnly: "randomized hash tables are cheaper to rebuild from the data (deterministic in Seed) than to store",
	})

	mustRegisterKind(IndexKind{
		Name:        KindFH,
		Description: "FH furthest-hyperplane hashing baseline (SIGMOD 2021)",
		Build: func(data *Matrix, spec Spec) (Index, error) {
			if err := checkBuildData(KindFH, data, spec); err != nil {
				return nil, err
			}
			ix := fh.Build(data.AppendOnes(), fh.Config{
				Lambda: spec.Lambda, M: spec.M, L: spec.L, B: spec.B, Seed: spec.Seed,
			})
			return &FH{index: ix, raw: data.D}, nil
		},
		Owns:      func(ix Index) bool { _, ok := ix.(*FH); return ok },
		BuildOnly: "randomized hash tables are cheaper to rebuild from the data (deterministic in Seed) than to store",
	})

	mustRegisterKind(IndexKind{
		Name:        KindLinearScan,
		Aliases:     []string{"scan", "linear"},
		Description: "exhaustive exact baseline with no index structure",
		Build: func(data *Matrix, spec Spec) (Index, error) {
			if err := checkBuildData(KindLinearScan, data, spec); err != nil {
				return nil, err
			}
			return &LinearScan{scan: linearscan.New(data.AppendOnes()), raw: data.D}, nil
		},
		Owns:      func(ix Index) bool { _, ok := ix.(*LinearScan); return ok },
		BuildOnly: "holds nothing beyond the data matrix; persist the data with SaveFvecs instead",
	})

	mustRegisterKind(IndexKind{
		Name:        KindQuantizedScan,
		Aliases:     []string{"quant", "qscan"},
		Description: "exact exhaustive baseline over 8-bit quantized codes",
		Build: func(data *Matrix, spec Spec) (Index, error) {
			if err := checkBuildData(KindQuantizedScan, data, spec); err != nil {
				return nil, err
			}
			return &QuantizedScan{scan: quant.NewScan(data.AppendOnes()), raw: data.D}, nil
		},
		Owns:      func(ix Index) bool { _, ok := ix.(*QuantizedScan); return ok },
		BuildOnly: "codes are derived from the data deterministically; persist the data with SaveFvecs instead",
	})
}
