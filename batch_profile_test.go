package p2h

import (
	"reflect"
	"testing"
)

// TestSearchBatchProfileParallelIsRaceFree is the regression test for the
// shared-Profile data race in SearchBatch's per-query fallback: all workers
// used to write the same Profile pointer concurrently. Under `go test
// -race` this test fails on a reintroduction; it also pins the documented
// semantics — on parallel paths the Profile is ignored, matching
// Sharded.Search.
func TestSearchBatchProfileParallelIsRaceFree(t *testing.T) {
	data := specTestData(400, 6, 1)
	queries := GenerateQueries(data, 32, 2)

	// KDTree has no native batch surface, so this exercises the per-query
	// worker fallback that raced.
	ix := MustBuild(t, data, Spec{Kind: KindKDTree, LeafSize: 25})
	var prof Profile
	opts := SearchOptions{K: 5, Profile: &prof}
	got := SearchBatch(ix, queries, opts, 4)

	want := SearchBatch(ix, queries, SearchOptions{K: 5}, 1)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("profiled parallel batch diverges from unprofiled batch")
	}
	if prof != (Profile{}) {
		t.Fatalf("parallel SearchBatch wrote the Profile, want it ignored: %+v", prof)
	}

	// The batched-index parallel path must be race-free too.
	bc := MustBuild(t, data, Spec{Kind: KindBCTree, LeafSize: 25, Seed: 3})
	var prof2 Profile
	gotBC := SearchBatch(bc, queries, SearchOptions{K: 5, Profile: &prof2}, 4)
	wantBC := SearchBatch(bc, queries, SearchOptions{K: 5}, 1)
	if !reflect.DeepEqual(gotBC, wantBC) {
		t.Fatal("profiled parallel batch diverges on the batched path")
	}
}

// TestSearchBatchProfileByKind pins which kinds fill SearchBatch's Profile:
// on one worker every kind does except sharded (its SearchBatch drops the
// Profile) and quantizedscan (its Search records no phases); on two workers
// none does.
func TestSearchBatchProfileByKind(t *testing.T) {
	data := specTestData(400, 6, 1)
	queries := GenerateQueries(data, 8, 2)
	unprofiled := map[string]bool{KindSharded: true, KindQuantizedScan: true}
	for _, kind := range Kinds() {
		ix := MustBuild(t, data, Spec{Kind: kind, Seed: 7, Shards: 3})
		for _, workers := range []int{1, 2} {
			var prof Profile
			SearchBatch(ix, queries, SearchOptions{K: 5, Profile: &prof}, workers)
			if want := workers == 1 && !unprofiled[kind]; (prof.Total() > 0) != want {
				t.Errorf("%s, %d workers: Profile total %v, want it filled: %v", kind, workers, prof.Total(), want)
			}
		}
	}
}
