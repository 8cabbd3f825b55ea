package dynamic

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"p2h/internal/attr"
	"p2h/internal/faultinject"
)

// TestGroupCommitSingleWriter pins the degraded case: a lone writer that
// appends then waits gets exactly one fsync per record — the classical
// WALSyncAlways behavior.
func TestGroupCommitSingleWriter(t *testing.T) {
	w, err := CreateWAL(filepath.Join(t.TempDir(), "x.wal"), 4, 0, WALSyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 5; i++ {
		if err := w.AppendInsert(int32(i), make([]float32, 4), attr.Point{}); err != nil {
			t.Fatal(err)
		}
		if err := w.WaitDurable(); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Syncs(); got != 5 {
		t.Fatalf("lone writer issued %d fsyncs for 5 records, want 5", got)
	}
}

// TestGroupCommitAmortizes runs many concurrent append+wait writers against
// a slowed fsync and checks (a) every waiter returns durable, (b) far fewer
// fsyncs than records were issued — the commit group actually batches.
func TestGroupCommitAmortizes(t *testing.T) {
	w, err := CreateWAL(filepath.Join(t.TempDir(), "x.wal"), 4, 0, WALSyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	faultinject.Enable("wal.fsync", faultinject.Fault{Delay: 2 * time.Millisecond})

	const writers = 32
	const perWriter = 8
	var appendMu sync.Mutex // stands in for the engine's mutation lock
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				appendMu.Lock()
				err := w.AppendInsert(int32(g*perWriter+i), make([]float32, 4), attr.Point{})
				appendMu.Unlock()
				if err == nil {
					err = w.WaitDurable()
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := int64(writers * perWriter)
	if w.Records() != total {
		t.Fatalf("records = %d, want %d", w.Records(), total)
	}
	if s := w.Syncs(); s >= total/2 {
		t.Fatalf("group commit issued %d fsyncs for %d records — no amortization", s, total)
	}
}

// TestGroupCommitFsyncFailureSticky injects an fsync error and checks the
// waiter sees it, later waits stay failed, and TruncateTo forgives.
func TestGroupCommitFsyncFailureSticky(t *testing.T) {
	w, err := CreateWAL(filepath.Join(t.TempDir(), "x.wal"), 4, 0, WALSyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	faultinject.Enable("wal.fsync", faultinject.Fault{Fail: true, Count: 1})

	if err := w.AppendInsert(0, make([]float32, 4), attr.Point{}); err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("WaitDurable = %v, want ErrInjected", err)
	}
	// The point is spent, but the failure is sticky: the stranded record can
	// never be promised durable.
	if err := w.WaitDurable(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("second WaitDurable = %v, want sticky ErrInjected", err)
	}
	if err := w.TruncateTo(1); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendInsert(1, make([]float32, 4), attr.Point{}); err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(); err != nil {
		t.Fatalf("WaitDurable after TruncateTo = %v", err)
	}
}

// TestWaitDurableNoneIsNoop pins that WALSyncNone never fsyncs.
func TestWaitDurableNoneIsNoop(t *testing.T) {
	w, err := CreateWAL(filepath.Join(t.TempDir(), "x.wal"), 4, 0, WALSyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendInsert(0, make([]float32, 4), attr.Point{}); err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	if w.Syncs() != 0 {
		t.Fatalf("WALSyncNone issued %d fsyncs", w.Syncs())
	}
}
