package httpapi

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	p2h "p2h"
)

func managerFixture(t *testing.T) (*Manager, string) {
	t.Helper()
	dir := t.TempDir()
	data := testMatrix(200, 6, 1)
	dataPath := filepath.Join(dir, "data.fvecs")
	if err := p2h.SaveFvecs(dataPath, data); err != nil {
		t.Fatal(err)
	}
	return NewManager(p2h.ServerOptions{Workers: 2}, time.Second), dataPath
}

func TestManagerLoadGetUnload(t *testing.T) {
	m, dataPath := managerFixture(t)
	defer m.Close(context.Background())
	_, replaced, err := m.Load("a", IndexConfig{Spec: &p2h.Spec{Kind: p2h.KindBCTree}, Data: dataPath}, false)
	if err != nil || replaced {
		t.Fatalf("Load: %v %v", replaced, err)
	}
	info, err := m.Get("a")
	if err != nil || info.Kind != p2h.KindBCTree || info.N != 200 || info.Dim != 6 {
		t.Fatalf("Get: %+v %v", info, err)
	}
	if m.Len() != 1 || len(m.List()) != 1 {
		t.Fatalf("Len/List: %d %v", m.Len(), m.List())
	}
	drained, err := m.Unload("a")
	if err != nil || !drained {
		t.Fatalf("Unload: %v %v", drained, err)
	}
	if _, err := m.Get("a"); !errors.Is(err, ErrIndexNotFound) {
		t.Fatalf("Get after unload: %v", err)
	}
	if _, err := m.Unload("a"); !errors.Is(err, ErrIndexNotFound) {
		t.Fatalf("double Unload: %v", err)
	}
}

func TestManagerReplaceSemantics(t *testing.T) {
	m, dataPath := managerFixture(t)
	defer m.Close(context.Background())
	if _, _, err := m.Load("a", IndexConfig{Spec: &p2h.Spec{Kind: p2h.KindBCTree}, Data: dataPath}, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Load("a", IndexConfig{Spec: &p2h.Spec{Kind: p2h.KindBallTree}, Data: dataPath}, false); !errors.Is(err, ErrIndexExists) {
		t.Fatalf("collision: %v", err)
	}
	loadInfo, replaced, err := m.Load("a", IndexConfig{Spec: &p2h.Spec{Kind: p2h.KindBallTree}, Data: dataPath}, true)
	if err != nil || !replaced {
		t.Fatalf("replace: %v %v", replaced, err)
	}
	// Load reports the index it installed, not a later table lookup.
	if loadInfo.Kind != p2h.KindBallTree || loadInfo.Name != "a" || loadInfo.N != 200 {
		t.Fatalf("Load info: %+v", loadInfo)
	}
	info, err := m.Get("a")
	if err != nil || info.Kind != p2h.KindBallTree {
		t.Fatalf("after replace: %+v %v", info, err)
	}
}

func TestManagerBadNames(t *testing.T) {
	m, dataPath := managerFixture(t)
	defer m.Close(context.Background())
	for _, name := range []string{"", "a/b", "a b", "héllo", string(make([]byte, 80))} {
		if _, _, err := m.Load(name, IndexConfig{Spec: &p2h.Spec{Kind: p2h.KindBCTree}, Data: dataPath}, false); !errors.Is(err, ErrBadName) {
			t.Errorf("name %q: err %v, want ErrBadName", name, err)
		}
	}
}

// stuckSearch starts a search on e's engine whose Filter blocks until the
// returned release is called: a call held inside the engine. It returns once
// the search is inside the index, and done receives the search's outcome.
func stuckSearch(t *testing.T, e *managed) (release func(), done <-chan error) {
	t.Helper()
	entered, unblock := make(chan struct{}), make(chan struct{})
	var once sync.Once
	opts := p2h.SearchOptions{K: 1, Filter: func(int32) bool {
		once.Do(func() { close(entered); <-unblock })
		return true
	}}
	q := make([]float32, e.dim+1)
	q[0] = 1
	out := make(chan error, 1)
	go func() {
		res, _, err := e.srv.SearchCtx(context.Background(), q, opts)
		if err == nil && len(res) != 1 {
			err = fmt.Errorf("%d results, want 1", len(res))
		}
		out <- err
	}()
	<-entered
	return sync.OnceFunc(func() { close(unblock) }), out
}

// TestManagerUnloadWaitsForHolders: an unload cannot close an engine out
// from under a call already inside it; the drain completes once that call
// finishes, and it finishes with its answer.
func TestManagerUnloadWaitsForHolders(t *testing.T) {
	m, dataPath := managerFixture(t)
	defer m.Close(context.Background())
	if _, _, err := m.Load("a", IndexConfig{Spec: &p2h.Spec{Kind: p2h.KindBCTree}, Data: dataPath}, false); err != nil {
		t.Fatal(err)
	}
	e, done, err := m.acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	release, searched := stuckSearch(t, e)
	defer release()
	unloaded := make(chan bool, 1)
	go func() {
		drained, err := m.Unload("a")
		if err != nil {
			t.Error(err)
		}
		unloaded <- drained
	}()
	// While the call is in flight, the entry is already invisible...
	deadline := time.After(2 * time.Second)
	for m.Len() != 0 {
		select {
		case <-deadline:
			t.Fatal("unload did not remove the entry")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	// ...and the unload waits for it.
	select {
	case <-unloaded:
		t.Fatal("unload returned while a search was still inside the engine")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if err := <-searched; err != nil {
		t.Fatalf("in-flight search during unload: %v", err)
	}
	done() // the caller is done with the entry, as a handler returning
	if drained := <-unloaded; !drained {
		t.Fatal("unload reported an abandoned engine despite a prompt finish")
	}
	// The retired engine refuses what still reaches it.
	q := make([]float32, e.dim+1)
	q[0] = 1
	if _, _, err := e.srv.SearchCtx(context.Background(), q, p2h.SearchOptions{K: 1}); !errors.Is(err, p2h.ErrDraining) {
		t.Fatalf("search on a retired engine: %v, want ErrDraining", err)
	}
}

// TestManagerUnloadTimesOutOnStuckHolder: a call that stays inside the engine
// past the drain timeout yields drained=false instead of a hang, and the
// abandoned engine still lets that call finish.
func TestManagerUnloadTimesOutOnStuckHolder(t *testing.T) {
	dir := t.TempDir()
	data := testMatrix(100, 5, 2)
	dataPath := filepath.Join(dir, "data.fvecs")
	if err := p2h.SaveFvecs(dataPath, data); err != nil {
		t.Fatal(err)
	}
	m := NewManager(p2h.ServerOptions{Workers: 1}, 50*time.Millisecond)
	if _, _, err := m.Load("a", IndexConfig{Spec: &p2h.Spec{Kind: p2h.KindBCTree}, Data: dataPath}, false); err != nil {
		t.Fatal(err)
	}
	e, done, err := m.acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	defer done()
	release, searched := stuckSearch(t, e)
	start := time.Now()
	drained, err := m.Unload("a")
	if err != nil || drained {
		t.Fatalf("Unload with stuck holder: drained=%v err=%v", drained, err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("Unload blocked far past the drain timeout")
	}
	release() // the abandoned engine closes in the background
	if err := <-searched; err != nil {
		t.Fatalf("stuck search after release: %v", err)
	}
}

// TestManagerReplaceServesAHeldCall: a call that acquired the entry before a
// hot reload replaced it is answered by the engine it found, not refused.
// The replace's drain waits for the held place — here past its timeout, so
// the old engine is certainly draining when the call searches — and the
// call's search is served; once the place is released, the retired engine
// refuses what still reaches it.
func TestManagerReplaceServesAHeldCall(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.fvecs")
	if err := p2h.SaveFvecs(dataPath, testMatrix(100, 5, 2)); err != nil {
		t.Fatal(err)
	}
	m := NewManager(p2h.ServerOptions{Workers: 1}, 20*time.Millisecond)
	defer m.Close(context.Background())
	cfg := IndexConfig{Spec: &p2h.Spec{Kind: p2h.KindBCTree}, Data: dataPath}
	if _, _, err := m.Load("a", cfg, false); err != nil {
		t.Fatal(err)
	}
	e, release, err := m.acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, replaced, err := m.Load("a", cfg, true); err != nil || !replaced {
		t.Fatalf("replace: replaced=%v err=%v", replaced, err)
	}
	// A call that acquires after the replace gets the new engine.
	if fresh, done, err := m.acquire("a"); err != nil || fresh == e {
		t.Fatalf("acquire after the replace: %v, the replaced entry %v", err, fresh == e)
	} else {
		done()
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Swapping() {
		if time.Now().After(deadline) {
			t.Fatal("the replaced engine's retirement never gave up on the held place")
		}
		time.Sleep(time.Millisecond)
	}
	q := make([]float32, e.dim+1)
	q[0] = 1
	if res, _, err := e.srv.SearchCtx(context.Background(), q, p2h.SearchOptions{K: 1}); err != nil || len(res) != 1 {
		t.Fatalf("held call on the replaced engine: %d results, %v", len(res), err)
	}
	release()
	if _, _, err := e.srv.SearchCtx(context.Background(), q, p2h.SearchOptions{K: 1}); !errors.Is(err, p2h.ErrDraining) {
		t.Fatalf("search on the retired engine after the release: %v, want ErrDraining", err)
	}
	if _, err := m.Unload("a"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.acquire("a"); !errors.Is(err, ErrIndexNotFound) {
		t.Fatalf("acquire after the unload: %v, want ErrIndexNotFound", err)
	}
}

func TestManagerClosedRejectsUse(t *testing.T) {
	m, dataPath := managerFixture(t)
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if _, _, err := m.Load("a", IndexConfig{Spec: &p2h.Spec{Kind: p2h.KindBCTree}, Data: dataPath}, false); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("Load after Close: %v", err)
	}
	if _, _, err := m.acquire("a"); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("acquire after Close: %v", err)
	}
}

// TestManagerInfoRacesMutation races the info/list/metrics read path (which
// probes a mutable index's size and footprint) against Insert/Delete
// traffic; run under -race it pins that Describe reads under the mutation
// lock rather than touching the bare index.
func TestManagerInfoRacesMutation(t *testing.T) {
	dir := t.TempDir()
	data := testMatrix(150, 5, 3)
	dataPath := filepath.Join(dir, "data.fvecs")
	if err := p2h.SaveFvecs(dataPath, data); err != nil {
		t.Fatal(err)
	}
	m := NewManager(p2h.ServerOptions{Workers: 2}, time.Second)
	defer m.Close(context.Background())
	if _, _, err := m.Load("dyn", IndexConfig{
		// A small fold threshold so the mutation stream triggers tree
		// swaps, the state info() used to read unsynchronized.
		Spec: &p2h.Spec{Kind: p2h.KindDynamic, LeafSize: 16, CompactFraction: 0.05}, Data: dataPath,
	}, false); err != nil {
		t.Fatal(err)
	}
	e, release, err := m.acquire("dyn")
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	done := make(chan struct{})
	go func() {
		defer close(done)
		p := make([]float32, 5)
		for i := 0; i < 150; i++ {
			p[0] = float32(i)
			h, err := e.srv.Insert(p)
			if err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				if _, err := e.srv.Delete(h); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if infos := m.List(); len(infos) != 1 || infos[0].N < 150 {
			t.Fatalf("list mid-mutation: %+v", infos)
		}
		if _, err := m.Get("dyn"); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}

// TestManagerWALLifecycle walks the durability loop through the manager:
// load a dynamic container with a WAL attached, mutate, unload (the crash
// stand-in — the container file never sees the mutations), reload and find
// them replayed, snapshot and find the log truncated.
func TestManagerWALLifecycle(t *testing.T) {
	dir := t.TempDir()
	ix, err := p2h.New(testMatrix(50, 4, 3), p2h.Spec{Kind: p2h.KindDynamic, LeafSize: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "dyn.idx")
	if err := p2h.SaveFile(path, ix); err != nil {
		t.Fatal(err)
	}
	m := NewManager(p2h.ServerOptions{Workers: 2}, time.Second)
	defer m.Close(context.Background())
	cfg := IndexConfig{Path: path, WAL: true, WALSync: "none"}

	info, _, err := m.Load("d", cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if info.WAL == nil || info.WAL.Sync != "none" || info.WAL.Records != 0 || info.WAL.Replayed != 0 {
		t.Fatalf("fresh WAL info: %+v", info.WAL)
	}

	e, release, err := m.acquire("d")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.srv.Insert([]float32{1, 2, 3, float32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := e.srv.Delete(0); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	info, err = m.Get("d")
	if err != nil || info.WAL.Records != 3 {
		t.Fatalf("after mutations: records=%d err=%v", info.WAL.Records, err)
	}

	release()
	// Unload without snapshotting: the mutations exist only in the log.
	if _, err := m.Unload("d"); err != nil {
		t.Fatal(err)
	}
	info, _, err = m.Load("d", cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if info.WAL.Replayed != 3 || info.WAL.Records != 3 || info.N != 51 {
		t.Fatalf("after reload: %+v n=%d", info.WAL, info.N)
	}

	// Snapshot truncates the log; a further reload replays nothing.
	e, release, err = m.acquire("d")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.srv.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	release()
	info, err = m.Get("d")
	if err != nil || info.WAL.Records != 0 {
		t.Fatalf("after snapshot: records=%d err=%v", info.WAL.Records, err)
	}
	if _, err := m.Unload("d"); err != nil {
		t.Fatal(err)
	}
	info, _, err = m.Load("d", cfg, false)
	if err != nil || info.WAL.Replayed != 0 || info.N != 51 {
		t.Fatalf("after snapshot reload: %+v n=%d err=%v", info.WAL, info.N, err)
	}
}
