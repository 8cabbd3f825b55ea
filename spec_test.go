package p2h

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
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
// documents (and to no other), is a BatchIndex exactly when its inner index
// has a batched path of its own, and answers a Pred as it answers the
// equivalent Filter — before attributes are attached (every payload is then
// the empty one) and after — through Search and, where there is one, the
// native SearchBatch.
func TestNewBuildsEveryKind(t *testing.T) {
	data := specTestData(300, 12, 1)
	queries := GenerateQueries(data, 3, 2)
	typed := map[string]func(Index) bool{
		KindBallTree:   func(ix Index) bool { _, ok := ix.(*BallTree); return ok },
		KindDynamic:    func(ix Index) bool { _, ok := ix.(*Dynamic); return ok },
		KindLinearScan: func(ix Index) bool { _, ok := ix.(*LinearScan); return ok },
		KindSharded:    func(ix Index) bool { _, ok := ix.(*Sharded); return ok },
	}
	points := make([]PointAttrs, data.N)
	for i := range points {
		points[i] = PointAttrs{Tags: []string{"even", "odd"}[i%2 : i%2+1], Ints: map[string]int64{"row": int64(i)}}
	}
	preds := []*Pred{TagIs("even"), NotOf(TagIs("even")), AllOf(TagIs("odd"), FieldAtMost("row", 150))}

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
		bi, isBatch := ix.(BatchIndex)
		if _, native := ix.(wrapped).base().in.(batchInner); isBatch != native {
			t.Fatalf("%s: BatchIndex = %v, inner index has a native batch = %v", kind, isBatch, native)
		}
		if res, _ := ix.Search(queries.Row(0), SearchOptions{K: 5}); len(res) != 5 {
			t.Fatalf("%s: %d results, want 5", kind, len(res))
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
				if isBatch {
					got, _ := bi.SearchBatch(queries, byPred)
					want, _ := bi.SearchBatch(queries, byFilter)
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
		"quant": KindQuantizedScan, "shard": KindSharded, "dyn": KindDynamic,
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
