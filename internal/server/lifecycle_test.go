package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"p2h/internal/attr"
	"p2h/internal/core"
)

// gatedJournal is a Journal whose WaitDurable blocks until release is
// closed, standing in for a slow fsync. Each wait first sends on waiting,
// whose buffer outlasts every test's waits, so a wait no test watches never
// blocks there. It counts the records appended.
type gatedJournal struct {
	mu      sync.Mutex
	records int
	waiting chan struct{}
	release chan struct{}
}

func newGatedJournal() *gatedJournal {
	return &gatedJournal{waiting: make(chan struct{}, 16), release: make(chan struct{})}
}

func (j *gatedJournal) AppendInsert(int32, []float32, attr.Point) error { return j.append() }
func (j *gatedJournal) AppendDelete(int32) error                        { return j.append() }

func (j *gatedJournal) append() error {
	j.mu.Lock()
	j.records++
	j.mu.Unlock()
	return nil
}

func (j *gatedJournal) WaitDurable() error {
	j.waiting <- struct{}{}
	<-j.release
	return nil
}

func (j *gatedJournal) count() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// TestEngineDrainWaitsForDurableInsert: an Insert blocked in the journal's
// durability wait is a call inside the engine, so Drain waits for it, and
// the mutations that arrive after Drain began are refused before they reach
// the index or the journal.
func TestEngineDrainWaitsForDurableInsert(t *testing.T) {
	m := newMutScan(3)
	j := newGatedJournal()
	e := New(m, m, Config{Workers: 1, Journal: j})

	inserted := make(chan error, 1)
	go func() {
		_, err := e.Insert([]float32{1, 2, 3}, attr.Point{})
		inserted <- err
	}()
	<-j.waiting

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := e.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain with an Insert in its durability wait: %v, want DeadlineExceeded", err)
	}
	if _, err := e.Insert([]float32{4, 5, 6}, attr.Point{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Insert after Drain: %v, want ErrDraining", err)
	}
	if _, err := e.Delete(0); !errors.Is(err, ErrDraining) {
		t.Fatalf("Delete after Drain: %v, want ErrDraining", err)
	}
	if got := j.count(); got != 1 {
		t.Fatalf("journal holds %d records, want the 1 acknowledged before Drain", got)
	}
	if m.rows.N != 1 || !m.alive[0] {
		t.Fatalf("index changed after Drain: %d rows, alive %v", m.rows.N, m.alive)
	}

	close(j.release)
	if err := <-inserted; err != nil {
		t.Fatalf("the in-flight Insert: %v", err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := e.Drain(ctx2); err != nil {
		t.Fatalf("Drain after the durability wait ended: %v", err)
	}
	if st := e.Stats(); st.Inserts != 1 || st.Deletes != 0 || st.Epoch != 1 || st.Queries != 0 || st.Batches != 0 {
		t.Fatalf("stats after drain: %+v", st)
	}
}

// TestEngineDrainWaitsForExclusive: a snapshot section is a call inside the
// engine too; Drain returns only once it has left.
func TestEngineDrainWaitsForExclusive(t *testing.T) {
	m := newMutScan(3)
	e := New(m, m, Config{Workers: 1})
	entered, release := make(chan struct{}), make(chan struct{})
	go func() {
		if err := e.Exclusive(func() error { close(entered); <-release; return nil }); err != nil {
			t.Error(err)
		}
	}()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := e.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain inside Exclusive: %v, want DeadlineExceeded", err)
	}
	close(release)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := e.Drain(ctx2); err != nil {
		t.Fatalf("Drain after Exclusive returned: %v", err)
	}
}

// TestEngineClosedRefusesMutationAndSnapshot: after Close, Insert, Delete
// and Exclusive return ErrDraining and change neither the index, the
// journal nor the counters; the ungated reads still answer.
func TestEngineClosedRefusesMutationAndSnapshot(t *testing.T) {
	m := newMutScan(3)
	j := newGatedJournal()
	close(j.release)
	e := New(m, m, Config{Workers: 1, Journal: j})
	h, err := e.Insert([]float32{1, 2, 3}, attr.Point{})
	if err != nil {
		t.Fatal(err)
	}
	<-j.waiting
	e.Close()
	before := e.Stats()

	if _, err := e.Insert([]float32{4, 5, 6}, attr.Point{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Insert after Close: %v, want ErrDraining", err)
	}
	if ok, err := e.Delete(h); ok || !errors.Is(err, ErrDraining) {
		t.Fatalf("Delete after Close: %v %v, want false, ErrDraining", ok, err)
	}
	ran := false
	if err := e.Exclusive(func() error { ran = true; return nil }); !errors.Is(err, ErrDraining) || ran {
		t.Fatalf("Exclusive after Close: %v (fn ran: %v), want ErrDraining", err, ran)
	}
	if _, _, err := e.SearchCtx(context.Background(), []float32{1, 0, 0, 0}, core.SearchOptions{K: 1}); !errors.Is(err, ErrDraining) {
		t.Fatalf("SearchCtx after Close: %v, want ErrDraining", err)
	}
	if m.rows.N != 1 || !m.alive[h] {
		t.Fatalf("index changed after Close: %d rows, alive %v", m.rows.N, m.alive)
	}
	if got := j.count(); got != 1 {
		t.Fatalf("journal holds %d records after Close, want 1", got)
	}
	if after := e.Stats(); after != before {
		t.Fatalf("counters moved after Close: %+v, then %+v", before, after)
	}
	shared := false
	e.Shared(func() { shared = true })
	if !shared {
		t.Fatal("Shared skipped fn on a closed engine")
	}

	// An immutable engine refuses the same way once closed.
	imm := New(m, nil, Config{Workers: 1})
	imm.Close()
	if err := imm.Exclusive(func() error { ran = true; return nil }); !errors.Is(err, ErrDraining) || ran {
		t.Fatalf("Exclusive on a closed immutable engine: %v (fn ran: %v)", err, ran)
	}
}

// TestEngineHoldKeepsTheGateOpen: a held place holds Drain off — a bounded
// Drain times out — and the holder's calls are served although the drain
// has begun; once the place is released the drain completes, and every call
// and a new Hold are refused.
func TestEngineHoldKeepsTheGateOpen(t *testing.T) {
	m := newMutScan(3)
	e := New(m, m, Config{Workers: 1})
	if _, err := e.Insert([]float32{1, 2, 3}, attr.Point{}); err != nil {
		t.Fatal(err)
	}
	release, err := e.Hold()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := e.Drain(ctx); err == nil {
		t.Fatal("Drain returned while a place was held")
	}
	q := []float32{1, 0, 0, 0}
	if res, _, err := e.SearchCtx(context.Background(), q, core.SearchOptions{K: 1}); err != nil || len(res) != 1 {
		t.Fatalf("held search during the drain: %d results, %v", len(res), err)
	}
	if _, err := e.Insert([]float32{4, 5, 6}, attr.Point{}); err != nil {
		t.Fatalf("held insert during the drain: %v", err)
	}
	release()
	if err := e.Drain(context.Background()); err != nil {
		t.Fatalf("Drain after the release: %v", err)
	}
	if _, _, err := e.SearchCtx(context.Background(), q, core.SearchOptions{K: 1}); !errors.Is(err, ErrDraining) {
		t.Fatalf("SearchCtx after the drain: %v, want ErrDraining", err)
	}
	if _, err := e.Hold(); !errors.Is(err, ErrDraining) {
		t.Fatalf("Hold after the drain: %v, want ErrDraining", err)
	}
}
