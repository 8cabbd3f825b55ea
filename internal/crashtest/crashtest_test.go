package crashtest

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"p2h"
	"p2h/internal/faultinject"
)

const (
	rawDim   = 5
	baseRows = 40
)

func testData(n, d int, seed int64) *p2h.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := p2h.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

func saveBytes(t *testing.T, ix p2h.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p2h.Save(&buf, ix); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// buildBase writes a populated dynamic container to dir/base.idx and
// returns its path.
func buildBase(t *testing.T, dir string, seed int64) string {
	t.Helper()
	ix, err := p2h.New(testData(baseRows, rawDim, seed), p2h.Spec{
		Kind: p2h.KindDynamic, LeafSize: 16, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "base.idx")
	if err := p2h.SaveFile(path, ix); err != nil {
		t.Fatal(err)
	}
	return path
}

func copyFile(t *testing.T, dst, src string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// runScript opens the base container, attaches a WAL next to it, applies
// every op, and returns the per-op reference Save bytes (refBytes[k] is the
// state after ops[:k]), the per-op handle counts, and the byte-offset
// ledger. The WAL is closed before returning so its bytes are final.
func runScript(t *testing.T, base string, ops []Op, mode p2h.WALSyncMode) (refBytes [][]byte, refHandles []int, ledger Ledger) {
	t.Helper()
	ix, err := p2h.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	d := ix.(*p2h.Dynamic)
	w, err := p2h.AttachWAL(d, p2h.WALPath(base), mode)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	refBytes = append(refBytes, saveBytes(t, d))
	refHandles = append(refHandles, d.Handles())
	for _, op := range ops {
		if err := Apply(d, w, op); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(w.Path())
		if err != nil {
			t.Fatal(err)
		}
		ledger.Offsets = append(ledger.Offsets, st.Size())
		refBytes = append(refBytes, saveBytes(t, d))
		refHandles = append(refHandles, d.Handles())
	}
	return refBytes, refHandles, ledger
}

// TestWALCrashPoints is the crash-injection harness: a scripted mutation
// run produces a real WAL, then 50 randomized kill points each truncate a
// copy of that log — the prefix a SIGKILL mid-write can leave — and
// recovery via Open must restore the exact acknowledged prefix: Save bytes
// identical to the reference state after the durable ops, handle counter
// included, with a torn trailing record (never acknowledged) dropped and
// nothing else.
func TestWALCrashPoints(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(41))
	base := buildBase(t, dir, 7)
	ops := Script(rng, rawDim, baseRows, 120, 0.3)
	refBytes, refHandles, ledger := runScript(t, base, ops, p2h.WALSyncNone)

	walBytes, err := os.ReadFile(p2h.WALPath(base))
	if err != nil {
		t.Fatal(err)
	}
	if n := ledger.Durable(int64(len(walBytes))); n != len(ops) {
		t.Fatalf("full log holds %d durable ops, want %d", n, len(ops))
	}

	killDir := filepath.Join(dir, "kill")
	if err := os.MkdirAll(killDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		// Random cut anywhere in the file, including inside the header
		// (a truncation remnant) and mid-record (a torn tail).
		cut := int64(rng.Intn(len(walBytes) + 1))
		k := ledger.Durable(cut)

		path := filepath.Join(killDir, "c.idx")
		copyFile(t, path, base)
		if err := os.WriteFile(p2h.WALPath(path), walBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := p2h.Open(path)
		if err != nil {
			t.Fatalf("kill point %d (cut %d): recovery failed: %v", i, cut, err)
		}
		d := rec.(*p2h.Dynamic)
		if d.Handles() != refHandles[k] {
			t.Fatalf("kill point %d (cut %d, %d durable ops): recovered handle counter %d, want %d",
				i, cut, k, d.Handles(), refHandles[k])
		}
		if got := saveBytes(t, d); !bytes.Equal(got, refBytes[k]) {
			t.Fatalf("kill point %d (cut %d, %d durable ops): recovered state differs from reference (%d vs %d bytes)",
				i, cut, k, len(got), len(refBytes[k]))
		}

		// Every fifth kill point also proves the log is usable after
		// recovery: attach to a fresh copy (standalone log name, so Open
		// does not replay first), confirm the replay count, and append.
		if i%5 != 0 {
			continue
		}
		path2 := filepath.Join(killDir, "c2.idx")
		wpath2 := filepath.Join(killDir, "standalone.wal")
		copyFile(t, path2, base)
		if err := os.WriteFile(wpath2, walBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		ix2, err := p2h.Open(path2)
		if err != nil {
			t.Fatal(err)
		}
		w2, err := p2h.AttachWAL(ix2, wpath2, p2h.WALSyncNone)
		if err != nil {
			t.Fatalf("kill point %d (cut %d): attach after crash: %v", i, cut, err)
		}
		if w2.Replayed() != k {
			t.Fatalf("kill point %d (cut %d): attach replayed %d records, want %d", i, cut, w2.Replayed(), k)
		}
		d2 := ix2.(*p2h.Dynamic)
		h := d2.Handles()
		if err := w2.AppendInsert(d2.Insert(make([]float32, rawDim)), make([]float32, rawDim)); err != nil {
			t.Fatalf("kill point %d: append after recovery: %v", i, err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		if n, err := p2h.CountWALRecords(wpath2); err != nil || n != k+1 {
			t.Fatalf("kill point %d: repaired log holds %d records (err %v), want %d", i, n, err, k+1)
		}
		if d2.Handles() != h+1 {
			t.Fatalf("kill point %d: insert after recovery did not advance handles", i)
		}
	}
}

// TestWALBitFlipsSurfaceAsFormatErrors: corruption inside complete records
// is not a torn tail — recovery must refuse the log with ErrFormat rather
// than replay around damage, because every record in it was acknowledged.
func TestWALBitFlipsSurfaceAsFormatErrors(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(43))
	base := buildBase(t, dir, 9)
	ops := Script(rng, rawDim, baseRows, 60, 0.3)
	runScript(t, base, ops, p2h.WALSyncNone)
	walBytes, err := os.ReadFile(p2h.WALPath(base))
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		bit := rng.Intn(len(walBytes) * 8)
		flipped := append([]byte(nil), walBytes...)
		flipped[bit/8] ^= 1 << (bit % 8)

		path := filepath.Join(dir, "flip.idx")
		copyFile(t, path, base)
		if err := os.WriteFile(p2h.WALPath(path), flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := p2h.Open(path); !errors.Is(err, p2h.ErrFormat) {
			t.Fatalf("flip %d (bit %d): Open returned %v, want ErrFormat", i, bit, err)
		}
	}
}

// TestWALSyncModesProduceIdenticalBytes: the fsync policy changes when
// bytes reach the disk, never which bytes — the same script journals to
// byte-identical logs under WALSyncAlways and WALSyncNone.
func TestWALSyncModesProduceIdenticalBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ops := Script(rng, rawDim, baseRows, 80, 0.3)
	var logs [][]byte
	for _, mode := range []p2h.WALSyncMode{p2h.WALSyncAlways, p2h.WALSyncNone} {
		dir := t.TempDir()
		base := buildBase(t, dir, 11)
		runScript(t, base, ops, mode)
		b, err := os.ReadFile(p2h.WALPath(base))
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, b)
	}
	if !bytes.Equal(logs[0], logs[1]) {
		t.Fatalf("sync modes wrote different logs: %d vs %d bytes", len(logs[0]), len(logs[1]))
	}
}

// resultHandles returns the sorted handle set of a search — the exact
// top-K is tree-shape independent, so two indexes holding the same live
// points must agree on it however differently they were compacted.
func resultHandles(ix interface {
	Search(q []float32, opts p2h.SearchOptions) ([]p2h.Result, p2h.Stats)
}, q []float32, k int) []int {
	res, _ := ix.Search(q, p2h.SearchOptions{K: k})
	hs := make([]int, len(res))
	for i, r := range res {
		hs[i] = int(r.ID)
	}
	sort.Ints(hs)
	return hs
}

// TestServerSearchDuringCompactionRecovers drives a journaling server with
// background compaction under concurrent searches (the -race proof that
// hot swaps are safe), then crash-recovers from its WAL and checks the
// recovered index answers exactly like an always-inline reference that
// applied the same script.
func TestServerSearchDuringCompactionRecovers(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(53))
	data := testData(300, rawDim, 13)

	ix, err := p2h.New(data, p2h.Spec{
		Kind: p2h.KindDynamic, LeafSize: 16, Seed: 3,
		// Inline rebuilds deferred far out; compaction carries the delta.
		RebuildFraction: 1e6, CompactFraction: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "srv.idx")
	if err := p2h.SaveFile(base, ix); err != nil {
		t.Fatal(err)
	}
	opened, err := p2h.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	wal, err := p2h.AttachWAL(opened, p2h.WALPath(base), p2h.WALSyncNone)
	if err != nil {
		t.Fatal(err)
	}
	srv := p2h.NewServer(opened, p2h.ServerOptions{WAL: wal, BackgroundCompaction: true})

	// Reference: same script applied inline (default rebuild policy).
	refIx, err := p2h.New(data, p2h.Spec{Kind: p2h.KindDynamic, LeafSize: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ref := refIx.(*p2h.Dynamic)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				q := make([]float32, rawDim+1)
				for i := range q {
					q[i] = float32(qrng.NormFloat64())
				}
				if res, _ := srv.Search(q, p2h.SearchOptions{K: 5}); len(res) == 0 {
					panic("search returned no results on a populated index")
				}
			}
		}(int64(100 + g))
	}

	ops := Script(rng, rawDim, 300, 800, 0.35)
	for _, op := range ops {
		if op.Delete {
			ok, err := srv.Delete(op.Handle)
			if err != nil || !ok {
				t.Fatalf("server delete %d: ok=%v err=%v", op.Handle, ok, err)
			}
			if !ref.Delete(op.Handle) {
				t.Fatalf("reference delete %d failed", op.Handle)
			}
		} else {
			h, err := srv.Insert(op.Vec)
			if err != nil || h != op.Handle {
				t.Fatalf("server insert got handle %d err %v, want %d", h, err, op.Handle)
			}
			if got := ref.Insert(op.Vec); got != op.Handle {
				t.Fatalf("reference insert got handle %d, want %d", got, op.Handle)
			}
		}
	}
	close(done)
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Compactions; got == 0 {
		t.Fatal("background compactor never ran; the test exercised nothing")
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash-recover: the container on disk is still the pre-script state,
	// every scripted op lives only in the WAL.
	rec, err := p2h.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	d := rec.(*p2h.Dynamic)
	if d.N() != ref.N() || d.Handles() != ref.Handles() {
		t.Fatalf("recovered n=%d handles=%d, reference n=%d handles=%d",
			d.N(), d.Handles(), ref.N(), ref.Handles())
	}
	qrng := rand.New(rand.NewSource(99))
	for qi := 0; qi < 25; qi++ {
		q := make([]float32, rawDim+1)
		for i := range q {
			q[i] = float32(qrng.NormFloat64())
		}
		got := resultHandles(d, q, 10)
		want := resultHandles(ref, q, 10)
		if len(got) != len(want) {
			t.Fatalf("query %d: recovered returned %d results, reference %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: recovered handles %v, reference %v", qi, got, want)
			}
		}
	}
}

// TestWALGroupCommitCrashPoints is the crash harness for the group-commit
// path: concurrent writers share fsyncs under WALSyncAlways (a slow-fsync
// fault guarantees real commit groups form), and the log they produce must
// recover byte-identically at any truncation point — exactly like the
// sequential log, because group commit changes when records become durable,
// never what is written. Mutation+append runs under one lock in script
// order (the serving engine's discipline), so per-op reference states and
// byte offsets stay well-defined even with eight writers in flight.
func TestWALGroupCommitCrashPoints(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(61))
	base := buildBase(t, dir, 17)
	ops := Script(rng, rawDim, baseRows, 120, 0.3)

	t.Cleanup(faultinject.Reset)
	if err := faultinject.Configure("wal.fsync=delay:2ms"); err != nil {
		t.Fatal(err)
	}

	ix, err := p2h.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	d := ix.(*p2h.Dynamic)
	w, err := p2h.AttachWAL(d, p2h.WALPath(base), p2h.WALSyncAlways)
	if err != nil {
		t.Fatal(err)
	}

	refBytes := make([][]byte, len(ops)+1)
	refHandles := make([]int, len(ops)+1)
	refBytes[0] = saveBytes(t, d)
	refHandles[0] = d.Handles()
	ledger := Ledger{Offsets: make([]int64, len(ops))}

	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(ops) {
					mu.Unlock()
					return
				}
				i := next
				next++
				op := ops[i]
				if op.Delete {
					if !d.Delete(op.Handle) {
						t.Errorf("op %d: scripted delete of %d found it dead", i, op.Handle)
						mu.Unlock()
						return
					}
					err = w.AppendDelete(op.Handle)
				} else {
					if h := d.Insert(op.Vec); h != op.Handle {
						t.Errorf("op %d: insert got handle %d, want %d", i, h, op.Handle)
						mu.Unlock()
						return
					}
					err = w.AppendInsert(op.Handle, op.Vec)
				}
				if err != nil {
					t.Errorf("op %d: append: %v", i, err)
					mu.Unlock()
					return
				}
				st, serr := os.Stat(w.Path())
				if serr != nil {
					t.Error(serr)
					mu.Unlock()
					return
				}
				ledger.Offsets[i] = st.Size()
				refBytes[i+1] = saveBytes(t, d)
				refHandles[i+1] = d.Handles()
				mu.Unlock()
				// The durability wait runs outside the lock — this is where
				// concurrent waiters pile onto one fsync.
				if err := w.WaitDurable(); err != nil {
					t.Errorf("op %d: WaitDurable: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	syncs := w.Syncs()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	faultinject.Reset()
	if syncs >= int64(len(ops)) {
		t.Fatalf("no fsync was ever shared: %d syncs for %d always-sync ops", syncs, len(ops))
	}
	t.Logf("group commit: %d ops, %d fsyncs (%.1fx amortization)",
		len(ops), syncs, float64(len(ops))/float64(syncs))

	walBytes, err := os.ReadFile(p2h.WALPath(base))
	if err != nil {
		t.Fatal(err)
	}
	if n := ledger.Durable(int64(len(walBytes))); n != len(ops) {
		t.Fatalf("full log holds %d durable ops, want %d", n, len(ops))
	}
	killDir := filepath.Join(dir, "kill")
	if err := os.MkdirAll(killDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		cut := int64(rng.Intn(len(walBytes) + 1))
		k := ledger.Durable(cut)
		path := filepath.Join(killDir, "g.idx")
		copyFile(t, path, base)
		if err := os.WriteFile(p2h.WALPath(path), walBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := p2h.Open(path)
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		dd := rec.(*p2h.Dynamic)
		if dd.Handles() != refHandles[k] {
			t.Fatalf("cut %d (%d durable ops): handle counter %d, want %d",
				cut, k, dd.Handles(), refHandles[k])
		}
		if got := saveBytes(t, dd); !bytes.Equal(got, refBytes[k]) {
			t.Fatalf("cut %d (%d durable ops): recovered state differs from reference (%d vs %d bytes)",
				cut, k, len(got), len(refBytes[k]))
		}
	}
}
