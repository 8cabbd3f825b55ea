package p2h

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestServerMatchesDirectSearchAllIndexes: through either entry of the
// server — one Search per query, or the whole set as one SearchBatchCtx —
// every index kind answers bitwise what its direct Search answers, cold and
// from the cache.
func TestServerMatchesDirectSearchAllIndexes(t *testing.T) {
	data, queries, _ := testSetup(t)
	rows := make([][]float32, queries.N)
	for i := range rows {
		rows[i] = queries.Row(i)
	}
	entries := map[string]func(*Server) [][]Result{
		"Search": func(srv *Server) [][]Result {
			out := make([][]Result, len(rows))
			for i, q := range rows {
				out[i], _ = srv.Search(q, SearchOptions{K: 5})
			}
			return out
		},
		"SearchBatchCtx": func(srv *Server) [][]Result {
			out, _, err := srv.SearchBatchCtx(context.Background(), rows, SearchOptions{K: 5})
			if err != nil {
				t.Fatal(err)
			}
			return out
		},
	}
	kinds := allIndexes(t, data)
	kinds["dynamic"] = MustBuild(t, data, Spec{Kind: KindDynamic, Seed: 3}).(*Dynamic)
	for name, ix := range kinds {
		for entry, run := range entries {
			srv := NewServer(ix, ServerOptions{Workers: 3})
			for pass := 0; pass < 2; pass++ { // pass 2 is served from the cache
				for i, got := range run(srv) {
					want, _ := ix.Search(rows[i], SearchOptions{K: 5})
					if !slices.Equal(got, want) {
						t.Fatalf("%s %s pass %d query %d: %v != %v", name, entry, pass, i, got, want)
					}
				}
			}
			st := srv.Stats()
			if st.Queries != int64(2*queries.N) || st.CacheHits != int64(queries.N) {
				t.Fatalf("%s %s stats %+v", name, entry, st)
			}
			srv.Close()
		}
	}
}

func TestServerImmutableIndexRejectsMutation(t *testing.T) {
	data, _, _ := testSetup(t)
	srv := NewServer(MustBuild(t, data, Spec{Kind: KindBCTree, Seed: 1}), ServerOptions{Workers: 1})
	defer srv.Close()
	if _, err := srv.Insert(data.Row(0)); err != ErrImmutable {
		t.Fatalf("Insert err %v", err)
	}
	if _, err := srv.Delete(0); err != ErrImmutable {
		t.Fatalf("Delete err %v", err)
	}
}

func TestServerDynamicMutationVisible(t *testing.T) {
	data, queries, _ := testSetup(t)
	srv := NewServer(MustBuild(t, data, Spec{Kind: KindDynamic, Seed: 1}), ServerOptions{Workers: 2})
	defer srv.Close()
	q := queries.Row(0)
	before, _ := srv.Search(q, SearchOptions{K: 2})
	// Deleting the best answer promotes the runner-up, through the cache.
	if ok, err := srv.Delete(before[0].ID); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	after, _ := srv.Search(q, SearchOptions{K: 1})
	if after[0].ID != before[1].ID {
		t.Fatalf("after delete want %v, got %v", before[1], after[0])
	}
	// Re-inserting the deleted vector restores the old distance (new handle).
	h, err := srv.Insert(data.Row(int(before[0].ID)))
	if err != nil {
		t.Fatal(err)
	}
	again, _ := srv.Search(q, SearchOptions{K: 1})
	if again[0].ID != h {
		t.Fatalf("reinserted point (handle %d) should win again, got %v", h, again[0])
	}
	st := srv.Stats()
	if st.Inserts != 1 || st.Deletes != 1 || st.Epoch != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestServerConcurrentSearchAndMutate interleaves concurrent Search callers
// with Dynamic Insert/Delete through one Server; run with -race it is the
// data-race acceptance test for the serving layer.
func TestServerConcurrentSearchAndMutate(t *testing.T) {
	data, queries, _ := testSetup(t)
	srv := NewServer(MustBuild(t, data, Spec{Kind: KindDynamic, Seed: 1}), ServerOptions{
		Workers:      4,
		CacheEntries: 64,
	})
	defer srv.Close()

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				h, err := srv.Insert(data.Row((g*37 + i) % data.N))
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if _, err := srv.Delete(h); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, _ := srv.Search(queries.Row((g+i)%queries.N), SearchOptions{K: 5})
				if len(res) != 5 {
					t.Errorf("got %d results mid-mutation", len(res))
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Every original point is still live, so exact results must match a
	// fresh scan over the surviving set.
	res, _ := srv.Search(queries.Row(0), SearchOptions{K: 5})
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatalf("results out of order: %v", res)
		}
	}
	if st := srv.Stats(); st.Queries < 200 || st.Epoch == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestServerUncacheableOptions(t *testing.T) {
	data, queries, _ := testSetup(t)
	srv := NewServer(MustBuild(t, data, Spec{Kind: KindBCTree, Seed: 1}), ServerOptions{Workers: 2})
	defer srv.Close()
	q := queries.Row(0)
	// A Filter bypasses the cache and is still honored.
	opts := SearchOptions{K: 3, Filter: func(id int32) bool { return id%2 == 0 }}
	for i := 0; i < 2; i++ {
		res, _ := srv.Search(q, opts)
		for _, r := range res {
			if r.ID%2 != 0 {
				t.Fatalf("filter ignored: %v", r)
			}
		}
	}
	// A Profile bypasses the cache and still accumulates time.
	var prof Profile
	srv.Search(q, SearchOptions{K: 3, Profile: &prof})
	if prof.Total() <= 0 {
		t.Fatal("profile not populated")
	}
	if st := srv.Stats(); st.CacheHits != 0 {
		t.Fatalf("uncacheable queries hit the cache: %+v", st)
	}
}

func TestServerPanicsOnBadQuery(t *testing.T) {
	data, _, _ := testSetup(t)
	srv := NewServer(MustBuild(t, data, Spec{Kind: KindBCTree}), ServerOptions{Workers: 1})
	defer srv.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	srv.Search(make([]float32, data.D), SearchOptions{K: 1}) // missing offset dim
}

// TestServerSnapshotRoundTrip: Snapshot writes a loadable container
// atomically, for both immutable and mutable indexes, and the restored index
// answers identically.
func TestServerSnapshotRoundTrip(t *testing.T) {
	data, queries, _ := testSetup(t)
	for name, ix := range map[string]Index{
		"bctree":  MustBuild(t, data, Spec{Kind: KindBCTree, Seed: 1}),
		"dynamic": MustBuild(t, data, Spec{Kind: KindDynamic, Seed: 1}),
	} {
		srv := NewServer(ix, ServerOptions{Workers: 2})
		path := filepath.Join(t.TempDir(), name+".p2h")
		n, err := srv.Snapshot(path)
		if err != nil {
			t.Fatalf("%s: Snapshot: %v", name, err)
		}
		st, err := os.Stat(path)
		if err != nil || st.Size() != n {
			t.Fatalf("%s: snapshot size %d, stat %v %v", name, n, st, err)
		}
		loaded, err := Open(path)
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		for i := 0; i < queries.N; i++ {
			want, _ := ix.Search(queries.Row(i), SearchOptions{K: 3})
			got, _ := loaded.Search(queries.Row(i), SearchOptions{K: 3})
			if len(got) != len(want) {
				t.Fatalf("%s query %d: %d results, want %d", name, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s query %d rank %d: %v != %v", name, i, j, got[j], want[j])
				}
			}
		}
		// No temp file debris in the destination directory.
		entries, err := os.ReadDir(filepath.Dir(path))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("%s: snapshot left debris: %v", name, entries)
		}
		srv.Close()
	}
}

// TestServerSnapshotConcurrentWithTraffic: snapshots interleaved with
// concurrent searches and mutations neither race (-race) nor corrupt the
// written container.
func TestServerSnapshotConcurrentWithTraffic(t *testing.T) {
	data, queries, _ := testSetup(t)
	srv := NewServer(MustBuild(t, data, Spec{Kind: KindDynamic, Seed: 1}), ServerOptions{Workers: 2})
	defer srv.Close()
	dir := t.TempDir()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := srv.Insert(data.Row(i % data.N)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			srv.Search(queries.Row(i%queries.N), SearchOptions{K: 3})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := srv.Snapshot(filepath.Join(dir, "snap.p2h")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if _, err := Open(filepath.Join(dir, "snap.p2h")); err != nil {
		t.Fatalf("final snapshot unreadable: %v", err)
	}
}

// TestServerSnapshotBuildOnlyKindFails: a kind without persistence reports
// the error instead of leaving a temp file behind.
func TestServerSnapshotBuildOnlyKindFails(t *testing.T) {
	data, _, _ := testSetup(t)
	srv := NewServer(MustBuild(t, data, Spec{Kind: KindNH, Seed: 1}), ServerOptions{Workers: 1})
	defer srv.Close()
	dir := t.TempDir()
	if _, err := srv.Snapshot(filepath.Join(dir, "nh.p2h")); err == nil {
		t.Fatal("Snapshot of a build-only kind succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("failed snapshot left debris: %v", entries)
	}
}

// TestServerDrainAndIndex: the bounded-drain surface and the index accessor.
func TestServerDrainAndIndex(t *testing.T) {
	data, queries, _ := testSetup(t)
	ix := MustBuild(t, data, Spec{Kind: KindBCTree, Seed: 1})
	srv := NewServer(ix, ServerOptions{Workers: 2})
	if srv.Index() != Index(ix) {
		t.Fatal("Index() does not return the wrapped index")
	}
	srv.Search(queries.Row(0), SearchOptions{K: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	srv.Close() // still idempotent after Drain
}
