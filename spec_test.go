package p2h

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// specTestData builds a small deterministic matrix.
func specTestData(n, d int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

// TestNewBuildsEveryKind: every kind is constructible via New(data,
// Spec{Kind: ...}), and what comes back is one wrapper's worth of contract
// whatever the kind: it reports its kind, asserts to the typed handle the kind
// documents (and to no other), answers a SearchBatch of 1, 3 and 64 rows,
// exact and budgeted, with its per-row Search answers — and with the per-row
// Stats too when the batch is budgeted or the inner index has no batched path
// of its own — and answers a Pred as it answers the equivalent Filter — before
// attributes are attached (every payload is then the empty one) and after —
// through Search and SearchBatch. The two arena kinds, balltree and bctree,
// differ only in the tree inside: both come back as the same handle.
func TestNewBuildsEveryKind(t *testing.T) {
	data := specTestData(300, 12, 1)
	queries, many := GenerateQueries(data, 3, 2), GenerateQueries(data, 64, 3)
	typed := map[string]func(Index) bool{
		KindDynamic:    func(ix Index) bool { _, ok := ix.(*Dynamic); return ok },
		KindLinearScan: func(ix Index) bool { _, ok := ix.(*LinearScan); return ok },
		KindSharded:    func(ix Index) bool { _, ok := ix.(*Sharded); return ok },
	}
	points := make([]PointAttrs, data.N)
	for i := range points {
		points[i] = PointAttrs{Tags: []string{"even", "odd"}[i%2 : i%2+1], Ints: map[string]int64{"row": int64(i)}}
	}
	preds := []*Pred{TagIs("even"), NotOf(TagIs("even")), AllOf(TagIs("odd"), FieldAtMost("row", 150))}

	ball, bc := MustBuild(t, data, Spec{Kind: KindBallTree}), MustBuild(t, data, Spec{Kind: KindBCTree})
	if reflect.TypeOf(ball) != reflect.TypeOf(bc) {
		t.Fatalf("balltree comes back as %T, bctree as %T", ball, bc)
	}
	for _, kind := range Kinds() {
		ix := MustBuild(t, data, Spec{Kind: kind, Seed: 7, Shards: 3})
		if ix.N() != data.N || ix.Dim() != data.D {
			t.Fatalf("%s: shape %d/%d, want %d/%d", kind, ix.N(), ix.Dim(), data.N, data.D)
		}
		if got := KindOf(ix); got != kind {
			t.Fatalf("KindOf(%s index) = %q", kind, got)
		}
		for name, is := range typed {
			if is(ix) != (name == kind) {
				t.Fatalf("%s: New returned %T, which asserts to the %s handle: %v", kind, ix, name, is(ix))
			}
		}
		if res, _ := ix.Search(queries.Row(0), SearchOptions{K: 5}); len(res) != 5 {
			t.Fatalf("%s: %d results, want 5", kind, len(res))
		}
		_, native := ix.(wrapped).base().in.(interface {
			SearchBatch(*Matrix, SearchOptions) ([][]Result, []Stats)
		})
		for _, rows := range []int{1, 3, 64} {
			batch := &Matrix{Data: many.Data[:rows*many.D], N: rows, D: many.D}
			for _, opts := range []SearchOptions{{K: 5}, {K: 5, Budget: 30}} {
				got, sts := ix.SearchBatch(batch, opts)
				for qi := 0; qi < rows; qi++ {
					want, st := ix.Search(batch.Row(qi), opts)
					if !reflect.DeepEqual(got[qi], want) {
						t.Fatalf("%s: %d-row batch, budget %d, row %d: %v, Search gives %v", kind, rows, opts.Budget, qi, got[qi], want)
					}
					if (opts.Budget > 0 || !native) && sts[qi] != st {
						t.Fatalf("%s: %d-row batch, budget %d, row %d: stats %+v, Search gives %+v", kind, rows, opts.Budget, qi, sts[qi], st)
					}
				}
			}
		}

		payload := func(int32) PointAttrs { return PointAttrs{} }
		for _, attached := range []bool{false, true} {
			if attached {
				if err := AttachAttributes(ix, points); err != nil {
					t.Fatalf("%s: AttachAttributes: %v", kind, err)
				}
				payload = func(id int32) PointAttrs { return points[id] }
			}
			for pi, pred := range preds {
				byPred := SearchOptions{K: 7, Pred: pred}
				byFilter := SearchOptions{K: 7, Filter: func(id int32) bool { return pred.Matches(payload(id)) }}
				for qi := 0; qi < queries.N; qi++ {
					got, _ := ix.Search(queries.Row(qi), byPred)
					want, _ := ix.Search(queries.Row(qi), byFilter)
					if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("%s attached=%v pred %d query %d: Pred gives %v, the equivalent Filter %v",
							kind, attached, pi, qi, got, want)
					}
				}
				got, _ := ix.SearchBatch(queries, byPred)
				want, _ := ix.SearchBatch(queries, byFilter)
				for qi := range want {
					if len(got[qi]) != len(want[qi]) || (len(want[qi]) > 0 && !reflect.DeepEqual(got[qi], want[qi])) {
						t.Fatalf("%s attached=%v pred %d: batched Pred diverges from the equivalent Filter at query %d",
							kind, attached, pi, qi)
					}
				}
			}
		}
	}
}

func TestNewErrors(t *testing.T) {
	data := specTestData(50, 4, 1)

	if _, err := New(data, Spec{Kind: "no-such-kind"}); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("unknown kind: err = %v, want ErrUnknownKind", err)
	}
	if _, err := New(data, Spec{}); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("empty kind: err = %v, want ErrUnknownKind", err)
	}
	if _, err := New(nil, Spec{Kind: KindBCTree}); err == nil {
		t.Fatal("nil data accepted by bctree")
	}
	if _, err := New(NewMatrix(0, 4), Spec{Kind: KindBallTree}); err == nil {
		t.Fatal("empty data accepted by balltree")
	}
	// Non-dynamic kinds take the dimensionality from the data but reject a
	// contradicting Spec.Dim (a config/data mix-up).
	if _, err := New(data, Spec{Kind: KindBCTree, Dim: 99}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("bctree contradicting Dim: err = %v, want ErrDimMismatch", err)
	}
	if _, err := New(data, Spec{Kind: KindBCTree, Dim: 4}); err != nil {
		t.Fatalf("bctree matching Dim: %v", err)
	}
	// Dynamic: empty start needs Dim; a contradicting Dim is rejected.
	if _, err := New(nil, Spec{Kind: KindDynamic}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("dynamic empty start without Dim: err = %v, want ErrDimMismatch", err)
	}
	if _, err := New(data, Spec{Kind: KindDynamic, Dim: 7}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("dynamic contradicting Dim: err = %v, want ErrDimMismatch", err)
	}
	// Matching Dim is fine, as is an empty start with Dim.
	if _, err := New(data, Spec{Kind: KindDynamic, Dim: 4}); err != nil {
		t.Fatalf("dynamic matching Dim: %v", err)
	}
	ix, err := New(nil, Spec{Kind: KindDynamic, Dim: 6})
	if err != nil {
		t.Fatalf("dynamic empty start: %v", err)
	}
	if ix.Dim() != 6 || ix.N() != 0 {
		t.Fatalf("dynamic empty start shape: %d/%d", ix.N(), ix.Dim())
	}
}

// TestKindAliases: the short names the CLIs use resolve to the canonical
// kinds.
func TestKindAliases(t *testing.T) {
	data := specTestData(80, 5, 2)
	for alias, want := range map[string]string{
		"bc": KindBCTree, "ball": KindBallTree, "kd": KindKDTree,
		"scan": KindLinearScan, "linear": KindLinearScan,
		"quant": KindLinearScan, "qscan": KindLinearScan, KindQuantizedScan: KindLinearScan,
		"shard": KindSharded, "dyn": KindDynamic,
		"BCTree": KindBCTree, " bctree ": KindBCTree, // case- and space-insensitive
	} {
		ix, err := New(data, Spec{Kind: alias, Shards: 2})
		if err != nil {
			t.Fatalf("New(%q): %v", alias, err)
		}
		if got := KindOf(ix); got != want {
			t.Fatalf("alias %q built %q, want %q", alias, got, want)
		}
	}
}

// TestQuantizedScanIsLinearScan: the retired 8-bit scan's name builds the
// exact scan itself — a *LinearScan whose answers and Stats are bitwise
// NewLinearScan's, exact, budgeted and filtered, one query at a time and as
// a batch.
func TestQuantizedScanIsLinearScan(t *testing.T) {
	data := specTestData(600, 7, 3)
	queries := GenerateQueries(data, 6, 4)
	ix, err := New(data, Spec{Kind: KindQuantizedScan})
	if err != nil {
		t.Fatal(err)
	}
	alias, ok := ix.(*LinearScan)
	if !ok {
		t.Fatalf("New(%s) returned %T, want *LinearScan", KindQuantizedScan, ix)
	}
	if got := KindOf(alias); got != KindLinearScan {
		t.Fatalf("KindOf(%s index) = %q, want %q", KindQuantizedScan, got, KindLinearScan)
	}
	ref := NewLinearScan(data)
	for _, opts := range []SearchOptions{{K: 10}, {K: 10, Budget: 250}, {K: 5, Filter: func(id int32) bool { return id%3 != 0 }}} {
		for i := 0; i < queries.N; i++ {
			got, gotSt := alias.Search(queries.Row(i), opts)
			want, wantSt := ref.Search(queries.Row(i), opts)
			if !reflect.DeepEqual(got, want) || gotSt != wantSt {
				t.Fatalf("query %d, budget %d: alias %v %+v, scan %v %+v", i, opts.Budget, got, gotSt, want, wantSt)
			}
		}
		got, gotSt := alias.SearchBatch(queries, opts)
		want, wantSt := ref.SearchBatch(queries, opts)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotSt, wantSt) {
			t.Fatalf("budget %d: the alias's batch diverges from the scan's", opts.Budget)
		}
	}
}

// TestSpecJSONRoundTrip: the struct tags give a stable wire form, the
// configuration surface of the cmd tools and the container header.
func TestSpecJSONRoundTrip(t *testing.T) {
	spec := Spec{Kind: KindSharded, LeafSize: 64, Seed: 9, Shards: 8, Workers: 4}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != spec {
		t.Fatalf("round trip: %+v != %+v", back, spec)
	}
	// Zero fields are omitted: a minimal spec stays minimal on the wire.
	b, err = json.Marshal(Spec{Kind: KindBCTree})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"kind":"bctree"}` {
		t.Fatalf("minimal spec JSON = %s", b)
	}
}

// TestSpecRefusesRebuildFraction: the dynamic kind has one fold threshold, so
// a spec that still sets the retired key is refused — by every JSON decoder
// of a Spec, the cmd tools' -spec flags and the daemon's index configs — with
// a message naming its replacement, as is a key that names no field at all,
// while a spec with compact_fraction decodes as before.
func TestSpecRefusesRebuildFraction(t *testing.T) {
	var spec Spec
	err := json.Unmarshal([]byte(`{"kind":"dynamic","rebuild_fraction":0.5}`), &spec)
	if err == nil || !strings.Contains(err.Error(), "rebuild_fraction") || !strings.Contains(err.Error(), `"compact_fraction"`) {
		t.Fatalf("rebuild_fraction: err = %v, want a refusal naming compact_fraction", err)
	}
	if err := json.Unmarshal([]byte(`{"kind":"bctree","leaf_sise":8}`), &spec); err == nil || !strings.Contains(err.Error(), "leaf_sise") {
		t.Fatalf("unknown key: err = %v, want it named", err)
	}
	if err := json.Unmarshal([]byte(`{"kind":"dynamic","leaf_size":8,"compact_fraction":0.5}`), &spec); err != nil {
		t.Fatal(err)
	}
	if want := (Spec{Kind: KindDynamic, LeafSize: 8, CompactFraction: 0.5}); spec != want {
		t.Fatalf("decoded %+v, want %+v", spec, want)
	}
}

// MustBuild is the tests' one constructor: New, or the test fails. It is
// exported (from a test file, so it is no part of the package) for the
// external test package to share.
func MustBuild(t testing.TB, data *Matrix, spec Spec) Index {
	t.Helper()
	ix, err := New(data, spec)
	if err != nil {
		t.Fatalf("New(%+v): %v", spec, err)
	}
	return ix
}
