package p2h

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSaveFileUnderSearches: four goroutines search a BC tree, a sharded index
// and a Server-wrapped dynamic index, one query at a time and as batches,
// while each index is saved 20 times to alternating paths — which has it
// adopt the file it wrote — and every file it served from before is
// unlinked. No answer changes. Run it under -race: adopting swaps a tree's
// sections under searches in flight.
func TestSaveFileUnderSearches(t *testing.T) {
	data := specTestData(3000, 15, 3)
	queries := GenerateQueries(data, 8, 4)
	bc := MustBuild(t, data, Spec{Kind: KindBCTree, LeafSize: 40, Seed: 1})
	sharded := MustBuild(t, data, Spec{Kind: KindSharded, Shards: 4, LeafSize: 40, Seed: 1})
	dyn := MustBuild(t, data, Spec{Kind: KindDynamic, LeafSize: 40, Seed: 1})
	srv := NewServer(dyn, ServerOptions{Workers: 2, CacheEntries: -1, MaxQueue: -1})
	defer srv.Close()
	rows := make([][]float32, queries.N)
	for i := range rows {
		rows[i] = queries.Row(i)
	}

	// Each surface answers every query alone and all of them as one batch,
	// exact and budgeted.
	surfaces := []func() ([][]Result, error){
		func() ([][]Result, error) { return answersOf(bc, queries), nil },
		func() ([][]Result, error) { return answersOf(sharded, queries), nil },
		func() ([][]Result, error) {
			var out [][]Result
			for _, opts := range []SearchOptions{{K: 7}, {K: 7, Budget: 300}} {
				for _, q := range rows {
					res, _, err := srv.SearchCtx(context.Background(), q, opts)
					if err != nil {
						return nil, err
					}
					out = append(out, res)
				}
				res, _, err := srv.SearchBatchCtx(context.Background(), rows, opts)
				if err != nil {
					return nil, err
				}
				out = append(out, res...)
			}
			return out, nil
		},
	}
	want := make([][][]Result, len(surfaces))
	for i, answer := range surfaces {
		var err error
		if want[i], err = answer(); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; !stop.Load(); round++ {
				i := (g + round) % len(surfaces)
				got, err := surfaces[i]()
				if err == nil && !reflect.DeepEqual(got, want[i]) {
					err = fmt.Errorf("surface %d: answers changed in round %d", i, round)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	dir := t.TempDir()
	for round := range 20 {
		for name, ix := range map[string]Index{"bc": bc, "sharded": sharded, "dynamic": srv.Index()} {
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.p2h", name, round%2))
			if err := SaveFile(path, ix); err != nil {
				t.Fatal(err)
			}
			if round > 0 {
				if err := os.Remove(filepath.Join(dir, fmt.Sprintf("%s-%d.p2h", name, (round-1)%2))); err != nil {
					t.Fatal(err)
				}
			}
		}
		runtime.GC() // so that the mappings given up are unmapped while searches run
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i, answer := range surfaces {
		if got, err := answer(); err != nil || !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("surface %d: answers changed after the saves (err %v)", i, err)
		}
	}
}

// answersOf is every query's exact and budgeted answer, one at a time and as
// one batch.
func answersOf(ix Index, queries *Matrix) [][]Result {
	var out [][]Result
	for _, opts := range []SearchOptions{{K: 7}, {K: 7, Budget: 300}} {
		for qi := 0; qi < queries.N; qi++ {
			res, _ := ix.Search(queries.Row(qi), opts)
			out = append(out, res)
		}
		out = append(out, SearchBatch(ix, queries, opts, 2)...)
	}
	return out
}
