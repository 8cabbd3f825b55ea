package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	p2h "p2h"
)

// The write schedule. A mutation takes the engine's lock exclusively, so it
// waits out the search in flight: with 2 ms exact reads running back to back
// the serving path sustains about 400 writes/s, and these rates load it to
// three quarters of that.
const (
	dynInsertRate = 300.0 // inserts per second, open loop
	dynDeleteRate = 30.0  // deletes per second, interleaved on the same schedule
	dynVerifyN    = 64    // queries checked against a linear scan after recovery
)

// dynRW is one closed-loop reader beside one open-loop writer on a durable
// dynamic index: p2h.Server, background compaction, WAL fsynced per write.
type dynRW struct {
	fx    *fixture
	stack *dynStack
	rng   *rand.Rand
	order []int // the seed's order of the reader's queries

	// Writer state, carried across runs. Handles are issued in insert order
	// by the single writer, so handle == data row index throughout.
	nextRow int
	writes  int            // position on the write schedule
	live    []int32        // acknowledged inserts not yet deleted, for delete picks
	deleted map[int32]bool // acknowledged deletes
	issued  atomic.Int32   // handles issued so far: the reader's validity bound

	writeLat, late []float64
	before         p2h.ServerStats
	footBytes      int64
	footN          int
	recovered      float64 // recall of the recovered index's answers; see recall
}

func (w *dynRW) setup(fx *fixture) error {
	w.fx = fx
	var err error
	if w.stack, err = fx.startDynamic("dyn", p2h.WALSyncAlways); err != nil {
		return err
	}
	fx.onClose(func() { _ = w.stack.stop() })
	w.rng = rand.New(rand.NewSource(fx.cfg.seed + 4))
	w.order = fx.order(fx.queries.N)
	w.nextRow = fx.dynSeedPoints()
	w.issued.Store(int32(w.nextRow))
	w.deleted = map[int32]bool{}
	w.footN, w.footBytes = w.stack.srv.Describe()
	return nil
}

// write is call i of the schedule: every eleventh is a delete of a random
// acknowledged insert, the rest insert the next unused data row.
func (w *dynRW) write(int) error {
	i := w.writes
	w.writes++
	every := int((dynInsertRate + dynDeleteRate) / dynDeleteRate)
	if i%every == every-1 && len(w.live) > 0 {
		j := w.rng.Intn(len(w.live))
		h := w.live[j]
		ok, err := w.stack.srv.Delete(h)
		if err != nil {
			return fmt.Errorf("delete %d: %w", h, err)
		}
		if !ok {
			return fmt.Errorf("delete %d: handle was not live", h)
		}
		w.live[j] = w.live[len(w.live)-1]
		w.live = w.live[:len(w.live)-1]
		w.deleted[h] = true
		return nil
	}
	if w.nextRow >= w.fx.data.N {
		return fmt.Errorf("insert: the data set's %d rows are used up", w.fx.data.N)
	}
	h, err := w.stack.srv.Insert(w.fx.data.Row(w.nextRow))
	if err != nil {
		return fmt.Errorf("insert row %d: %w", w.nextRow, err)
	}
	if int(h) != w.nextRow {
		return fmt.Errorf("insert row %d: got handle %d", w.nextRow, h)
	}
	w.nextRow++
	w.live = append(w.live, h)
	w.issued.Store(h + 1)
	return nil
}

func (w *dynRW) run(d time.Duration, tr *tracer) window {
	w.before = w.stack.srv.Stats()
	w.writeLat, w.late = nil, nil
	var writer window
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		lat, late, failed, firstErr := openLoop(d, dynInsertRate+dynDeleteRate, 1, w.write)
		w.writeLat, w.late = lat, late
		writer = window{attempted: int64(len(late)), failed: failed, firstErr: firstErr}
	}()
	ctx := context.Background()
	win := closedLoop(d, 1, []string{"server.search"}, tr, func(_, i int) opResult {
		qi := w.order[i%len(w.order)]
		q := w.fx.queries.Row(qi)
		res, _, err := w.stack.srv.SearchCtx(ctx, q, p2h.SearchOptions{K: topK})
		if err == nil {
			err = validResults(res, q, topK, w.row)
		}
		if err != nil {
			return opResult{err: fmt.Errorf("read %d: %w", qi, err)}
		}
		return opResult{queries: 1}
	})
	wg.Wait()
	win.merge(&writer)
	return win
}

// row maps a handle to its vector; nil for a handle never issued.
func (w *dynRW) row(h int32) []float32 {
	// An insert is searchable before its handle is published here, so the
	// bound trails by at most the one write in flight.
	if h < 0 || h > w.issued.Load() || int(h) >= w.fx.data.N {
		return nil
	}
	return w.fx.data.Row(int(h))
}

// finish stops the stack, reopens the index from container + WAL, and
// requires the recovered index to hold exactly the acknowledged state.
func (w *dynRW) finish(win *window) (map[string]metric, map[string]int, error) {
	after := w.stack.srv.Stats()
	if err := w.stack.stop(); err != nil {
		return nil, nil, err
	}

	start := time.Now()
	ix, err := p2h.Open(w.stack.container)
	if err != nil {
		return nil, nil, fmt.Errorf("recover: %w", err)
	}
	recoverS := time.Since(start).Seconds()
	rec := ix.(*p2h.Dynamic)

	// The expected live set: seed rows and acknowledged inserts, less
	// acknowledged deletes, in handle order so ties break as the index's do.
	var liveRows []int32
	for h := int32(0); int(h) < w.nextRow; h++ {
		if !w.deleted[h] {
			liveRows = append(liveRows, h)
		}
	}
	if rec.Handles() != w.nextRow || rec.N() != len(liveRows) {
		win.fail(fmt.Errorf("recovered %d handles and %d live points, acknowledged %d and %d",
			rec.Handles(), rec.N(), w.nextRow, len(liveRows)))
	}
	scan := p2h.NewLinearScan(w.fx.data.SubsetRows(liveRows))
	var recalled float64
	for qi := 0; qi < dynVerifyN; qi++ {
		q := w.fx.queries.Row(qi)
		want, _ := scan.Search(q, p2h.SearchOptions{K: topK})
		for i := range want {
			want[i].ID = liveRows[want[i].ID]
		}
		got, _ := rec.Search(q, p2h.SearchOptions{K: topK})
		win.attempted++
		if err := sameResults(got, want); err != nil {
			win.fail(fmt.Errorf("recovered index, query %d: %w", qi, err))
		}
		recalled += p2h.Recall(got, want)
	}
	w.recovered = recalled / dynVerifyN
	// Membership, handle by handle: Delete reports whether a handle was
	// live, so on the recovered index (which nothing reads afterwards) it is
	// the exact presence test for every acknowledged write.
	for h := int32(0); int(h) < w.nextRow; h++ {
		if present := rec.Delete(h); present == w.deleted[h] {
			win.fail(fmt.Errorf("recovered index: handle %d present=%v, acknowledged deleted=%v", h, present, w.deleted[h]))
		}
	}

	return map[string]metric{
			"write_p50_ms":    {percentile(w.writeLat, 0.50), "ms"},
			"write_p99_ms":    {percentile(w.writeLat, 0.99), "ms"},
			"recover_s":       {recoverS, "s"},
			"gen_late_p99_ms": {percentile(w.late, 0.99), "ms"},
			"compactions":     {float64(after.Compactions - w.before.Compactions), "count"},
			"writes_per_s":    {ratio(float64(len(w.writeLat)), win.elapsed.Seconds()), "ops/s"},
		}, map[string]int{
			"write_p50_ms": len(w.writeLat), "write_p99_ms": len(w.writeLat), "gen_late_p99_ms": len(w.late),
		}, nil
}

// recall on dyn-rw is that of the recovered index's answers against a linear
// scan of the acknowledged live set, so it is known only after finish.
func (w *dynRW) recall() float64 { return w.recovered }

func (w *dynRW) footprint() (int64, int) { return w.footBytes, w.footN }

func (w *dynRW) timings(win *window) (float64, float64, int) { return quietTimings(win, 0.99) }

func (w *dynRW) params() map[string]any {
	return map[string]any{
		"loop": "closed reader + open-loop writer", "clients": 1, "writers": 1,
		"inserts_per_s": dynInsertRate, "deletes_per_s": dynDeleteRate,
		"seed_points": w.fx.dynSeedPoints(), "wal_sync": p2h.WALSyncAlways.String(),
		"background_compaction": true, "compact_fraction": dynCompactFraction, "server_options": "default (cache 1024)",
	}
}

func (w *dynRW) close() {}
