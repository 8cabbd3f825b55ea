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
	"sync/atomic"
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
// every op through a Server over the two, and returns the served index's
// Save bytes after each op (refBytes[k] is the state after ops[:k]), its
// handle counts, and the byte-offset ledger. The server folds the delta on
// its own goroutine; an unserved twin that applies the same ops and folds
// inline, as a replay of the log does, tells when a fold is owed, and the
// served state is read only once the server has made it. The WAL is closed
// before returning so its bytes are final.
func runScript(t *testing.T, base string, ops []Op, mode p2h.WALSyncMode) (refBytes [][]byte, refHandles []int, ledger Ledger) {
	t.Helper()
	var ix [2]*p2h.Dynamic
	for i := range ix {
		opened, err := p2h.Open(base)
		if err != nil {
			t.Fatal(err)
		}
		ix[i] = opened.(*p2h.Dynamic)
	}
	d, twin := ix[0], ix[1]
	w, err := p2h.AttachWAL(d, p2h.WALPath(base), mode)
	if err != nil {
		t.Fatal(err)
	}
	srv := p2h.NewServer(d, p2h.ServerOptions{Workers: 1, WAL: w})
	defer func() {
		srv.Close()
		w.Close()
	}()

	refBytes = append(refBytes, saveBytes(t, d))
	refHandles = append(refHandles, d.Handles())
	var folds int64
	for i, op := range ops {
		if err := Apply(srv, op); err != nil {
			t.Fatal(err)
		}
		if op.Delete {
			twin.Delete(op.Handle)
		} else {
			twin.Insert(op.Vec)
		}
		if twin.Pending() == 0 {
			folds++ // the twin folded inline: this op crossed the threshold
		}
		// The loop counts a fold under the lock it installs under, so once
		// the count is read the served index is settled and Save reads it.
		for deadline := time.Now().Add(30 * time.Second); srv.Stats().Compactions < folds; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("op %d: no background compaction within 30s: %+v", i, srv.Stats())
			}
		}
		if c := srv.Stats().Compactions; c != folds {
			t.Fatalf("op %d: the server folded %d times, an inline replay %d", i, c, folds)
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
		srv2 := p2h.NewServer(d2, p2h.ServerOptions{Workers: 1, WAL: w2})
		err = Apply(srv2, Op{Vec: make([]float32, rawDim), Handle: int32(h)})
		srv2.Close()
		if err != nil {
			t.Fatalf("kill point %d: insert after recovery: %v", i, err)
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

// TestServerSearchDuringCompactionRecovers drives a journaling server, which
// compacts in the background, under concurrent searches (the -race proof that
// hot swaps are safe), then crash-recovers from its WAL and checks the
// recovered index answers exactly like an always-inline reference that
// applied the same script.
func TestServerSearchDuringCompactionRecovers(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(53))
	data := testData(300, rawDim, 13)

	ix, err := p2h.New(data, p2h.Spec{
		Kind: p2h.KindDynamic, LeafSize: 16, Seed: 3,
		// The server's background compaction carries the delta at this
		// threshold; the replay after the crash folds inline at it.
		CompactFraction: 0.05,
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
	srv := p2h.NewServer(opened, p2h.ServerOptions{WAL: wal})

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
// path: eight writers drive one Server under WALSyncAlways (a slow-fsync
// fault guarantees real commit groups form). Each op enters the server once
// the op before it is in the log, so the ops apply in script order while
// their fsync waits overlap. Group commit changes when records become
// durable, never what is written: the log must be byte for byte the one a
// lone writer leaves (runScript), and so recover at any truncation point to
// exactly that writer's state.
func TestWALGroupCommitCrashPoints(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(61))
	base := buildBase(t, dir, 17)
	ops := Script(rng, rawDim, baseRows, 120, 0.3)

	refBase := filepath.Join(dir, "ref.idx")
	copyFile(t, refBase, base)
	refBytes, refHandles, ledger := runScript(t, refBase, ops, p2h.WALSyncAlways)
	refLog, err := os.ReadFile(p2h.WALPath(refBase))
	if err != nil {
		t.Fatal(err)
	}

	t.Cleanup(faultinject.Reset)
	if err := faultinject.Configure("wal.fsync=delay:2ms"); err != nil {
		t.Fatal(err)
	}
	ix, err := p2h.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	w, err := p2h.AttachWAL(ix, p2h.WALPath(base), p2h.WALSyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	srv := p2h.NewServer(ix, p2h.ServerOptions{Workers: 2, WAL: w})

	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				// The server appends op i-1 before it waits for the fsync,
				// so op i starts while that wait is still in flight.
				for w.Records() < int64(i) {
					if failed.Load() {
						return
					}
					time.Sleep(20 * time.Microsecond)
				}
				if err := Apply(srv, ops[i]); err != nil {
					t.Errorf("op %d: %v", i, err)
					failed.Store(true)
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
	srv.Close()
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
	if !bytes.Equal(walBytes, refLog) {
		t.Fatalf("group commit wrote a %d-byte log, the lone writer %d bytes of other content", len(walBytes), len(refLog))
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
