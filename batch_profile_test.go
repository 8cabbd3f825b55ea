package p2h

import (
	"reflect"
	"testing"
)

// TestSearchBatchProfileParallelIsRaceFree shares one Profile among the
// workers of a parallel SearchBatch — the per-query worker split (KDTree has
// no native batch) and the sub-batch split (BC-Tree) — and with the shards of
// a Sharded.Search. Under `go test -race` it fails if any of them writes the
// profile without synchronisation. Each profiled call returns the unprofiled
// call's answers (and, for Search, its Stats) and fills the profile: a
// profile records the path a call takes and never chooses it.
func TestSearchBatchProfileParallelIsRaceFree(t *testing.T) {
	data := specTestData(400, 6, 1)
	queries := GenerateQueries(data, 32, 2)

	for _, spec := range []Spec{{Kind: KindKDTree, LeafSize: 25}, {Kind: KindBCTree, LeafSize: 25, Seed: 3}} {
		ix := MustBuild(t, data, spec)
		var prof Profile
		got := SearchBatch(ix, queries, SearchOptions{K: 5, Profile: &prof}, 4)
		want := SearchBatch(ix, queries, SearchOptions{K: 5}, 4)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: profiled parallel batch diverges from the unprofiled batch", spec.Kind)
		}
		if prof.Total() <= 0 {
			t.Fatalf("%s: parallel SearchBatch left the Profile empty", spec.Kind)
		}
	}

	sh := MustBuild(t, data, Spec{Kind: KindSharded, Shards: 3, Workers: 3, Seed: 7})
	for i := 0; i < queries.N; i++ {
		var prof Profile
		got, gotSt := sh.Search(queries.Row(i), SearchOptions{K: 5, Profile: &prof})
		want, wantSt := sh.Search(queries.Row(i), SearchOptions{K: 5})
		if !reflect.DeepEqual(got, want) || gotSt != wantSt {
			t.Fatalf("query %d: profiled Sharded.Search %v %+v, unprofiled %v %+v", i, got, gotSt, want, wantSt)
		}
		if prof.Total() <= 0 {
			t.Fatalf("query %d: Sharded.Search left the Profile empty", i)
		}
	}
}

// TestSearchBatchProfileByKind: every kind fills SearchBatch's Profile on one
// worker and on four, with the answers of the unprofiled batch.
func TestSearchBatchProfileByKind(t *testing.T) {
	data := specTestData(400, 6, 1)
	queries := GenerateQueries(data, 8, 2)
	for _, kind := range Kinds() {
		ix := MustBuild(t, data, Spec{Kind: kind, Seed: 7, Shards: 3})
		for _, workers := range []int{1, 4} {
			var prof Profile
			got := SearchBatch(ix, queries, SearchOptions{K: 5, Profile: &prof}, workers)
			if want := SearchBatch(ix, queries, SearchOptions{K: 5}, workers); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %d workers: the profiled batch diverges from the unprofiled one", kind, workers)
			}
			if prof.Total() <= 0 {
				t.Errorf("%s, %d workers: Profile total %v, want it filled", kind, workers, prof.Total())
			}
		}
	}
}
