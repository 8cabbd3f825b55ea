package p2h

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

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

// TestServedDynamicCompactsInTheBackground: a Dynamic served with zero
// ServerOptions folds its delta on the server's own goroutine, never inside
// the Insert that outgrew CompactFraction, and once folded answers bitwise
// as an unserved twin that took the same inserts and folded inline. Once
// the server closes, the Dynamic folds inline again, in step with the twin.
func TestServedDynamicCompactsInTheBackground(t *testing.T) {
	all := Dedup(GenerateDataset("Sift", 3000, 1))
	queries := GenerateQueries(all, 20, 2)
	const seedN = 2000
	seed := NewMatrix(seedN, all.D)
	copy(seed.Data, all.Data[:seedN*all.D])
	spec := Spec{Kind: KindDynamic, Seed: 1}
	served := MustBuild(t, seed, spec).(*Dynamic)
	srv := NewServer(served, ServerOptions{})
	defer srv.Close()
	twin := MustBuild(t, seed, spec).(*Dynamic)

	for row := seedN; ; row++ {
		if row == all.N {
			t.Fatal("the inserts never outgrew CompactFraction")
		}
		if _, err := srv.Insert(all.Row(row)); err != nil {
			t.Fatal(err)
		}
		twin.Insert(all.Row(row))
		if twin.Pending() == 0 {
			break // the twin folded inline: this insert crossed the threshold
		}
	}
	// The fold is counted under the lock that installs it, so a Stats that
	// reads the delta folded also counts the fold, however fast it ran.
	if st := srv.Stats(); st.PendingDelta == 0 && st.Compactions == 0 {
		t.Fatalf("the Insert that outgrew CompactFraction folded the delta inline: %+v", st)
	}
	for deadline := time.Now().Add(30 * time.Second); srv.Stats().Compactions == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no background compaction within 30s: %+v", srv.Stats())
		}
	}
	if st := srv.Stats(); st.Compactions != 1 || st.PendingDelta != 0 {
		t.Fatalf("after the fold: %+v, want one compaction and no delta", st)
	}
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		got, _ := srv.Search(q, SearchOptions{K: 10})
		want, _ := twin.Search(q, SearchOptions{K: 10})
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, twin %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d rank %d: served %+v, twin %+v", qi, i, got[i], want[i])
			}
		}
	}

	srv.Close()
	for i := 0; i < 2*seedN; i++ {
		p := all.Row(i % all.N)
		served.Insert(p)
		twin.Insert(p)
		if served.Pending() != twin.Pending() {
			t.Fatalf("insert %d after Close: pending %d, twin %d", i, served.Pending(), twin.Pending())
		}
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
	// A profiled first search misses the cache, so it runs the index and
	// accumulates time (a profiled repeat would be a hit:
	// TestEngineProfiledRepeatIsCacheHit).
	var prof Profile
	srv.Search(q, SearchOptions{K: 3, Profile: &prof})
	if prof.Total() <= 0 {
		t.Fatal("profile not populated")
	}
	if st := srv.Stats(); st.CacheHits != 0 {
		t.Fatalf("filtered or first queries hit the cache: %+v", st)
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

// TestServerSnapshotSizeIsWhatItWrote: while another writer keeps renaming a
// one-byte file over the snapshot path, every size Snapshot reports is that
// of the container it wrote — what Save writes for the index — never the size
// of whatever sits at the path by the time it returns.
func TestServerSnapshotSizeIsWhatItWrote(t *testing.T) {
	data, _, _ := testSetup(t)
	ix := MustBuild(t, data, Spec{Kind: KindBCTree, Seed: 1})
	var buf bytes.Buffer
	if err := Save(&buf, ix); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ix, ServerOptions{Workers: 1})
	defer srv.Close()
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.p2h")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tmp := filepath.Join(dir, "other")
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := os.WriteFile(tmp, []byte("x"), 0o644); err != nil {
				t.Error(err)
				return
			}
			if err := os.Rename(tmp, path); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 100; i++ {
		n, err := srv.Snapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("snapshot %d: reported %d bytes, Save writes %d", i, n, buf.Len())
		}
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

// TestServerClosedRefusesWrites: after Close, Insert, InsertWithAttrs,
// Delete and Snapshot return ErrDraining and change neither the index, the
// WAL nor the file system; the WAL can be closed the moment Close returns.
func TestServerClosedRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	ixPath := filepath.Join(dir, "ix.p2h")
	ix := MustBuild(t, nil, Spec{Kind: KindDynamic, Dim: 4, Seed: 1}).(*Dynamic)
	w, err := AttachWAL(ix, WALPath(ixPath), WALSyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ix, ServerOptions{Workers: 1, WAL: w})
	h, err := srv.Insert([]float32{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	p := []float32{5, 6, 7, 8}
	if _, err := srv.Insert(p); !errors.Is(err, ErrDraining) {
		t.Fatalf("Insert after Close: %v, want ErrDraining", err)
	}
	if _, err := srv.InsertWithAttrs(p, PointAttrs{Tags: []string{"a"}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("InsertWithAttrs after Close: %v, want ErrDraining", err)
	}
	if ok, err := srv.Delete(h); ok || !errors.Is(err, ErrDraining) {
		t.Fatalf("Delete after Close: %v %v, want false, ErrDraining", ok, err)
	}
	if _, err := srv.Snapshot(ixPath); !errors.Is(err, ErrDraining) {
		t.Fatalf("Snapshot after Close: %v, want ErrDraining", err)
	}
	if n, _ := srv.Describe(); n != 1 || ix.Handles() != 1 {
		t.Fatalf("index changed after Close: N %d, handles %d", n, ix.Handles())
	}
	if st := srv.Stats(); st.Inserts != 1 || st.Deletes != 0 || st.Epoch != 1 {
		t.Fatalf("counters after Close: %+v", st)
	}
	if got := w.Records(); got != 1 {
		t.Fatalf("WAL holds %d records after Close, want 1", got)
	}
	if _, err := os.Stat(ixPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Snapshot after Close wrote %s: %v", ixPath, err)
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
