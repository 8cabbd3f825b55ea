package main

import (
	"sync"
	"time"
)

// call is one completed, correct call as the loop that made it timed it.
type call struct {
	start, end time.Duration // since the window began
	kind       int           // index into the loop's kind names; kind 0 is the workload's read call
	item       int           // identifies identical work within a kind, where a workload repeats it; see itemTimings
	queries    int           // read ops the call completed
}

func (c call) ms() float64 { return millis(c.end - c.start) }

// window is what one run of a workload measured.
type window struct {
	elapsed   time.Duration
	attempted int64 // calls made, reads and writes
	failed    int64 // calls that errored, were refused, or answered wrongly
	firstErr  string
	calls     []call
}

func (w *window) fail(err error) {
	w.failed++
	if w.firstErr == "" {
		w.firstErr = err.Error()
	}
}

// opResult is what one call reports back to the loop that timed it.
type opResult struct {
	kind    int
	item    int
	queries int
	err     error
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// closedLoop runs `clients` callers for d: each sends its next call only
// after the previous one returned, so a slower system receives less load.
// Every call is timed and, when tracing, recorded as a span named by kind.
func closedLoop(d time.Duration, clients int, kinds []string, tr *tracer, op func(client, i int) opResult) window {
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]window, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &parts[c]
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				r := op(c, i)
				t1 := time.Now()
				w.attempted++
				if r.err != nil {
					w.fail(r.err)
					continue
				}
				w.calls = append(w.calls, call{start: t0.Sub(start), end: t1.Sub(start), kind: r.kind, item: r.item, queries: r.queries})
				tr.add(kinds[r.kind], 0, int64(c)<<32|int64(i), t0, t1, nil)
			}
		}()
	}
	wg.Wait()
	out := window{elapsed: time.Since(start)}
	for i := range parts {
		out.merge(&parts[i])
	}
	return out
}

// merge folds another client's (or the writer's) counts into w.
func (w *window) merge(p *window) {
	w.attempted += p.attempted
	w.failed += p.failed
	if w.firstErr == "" {
		w.firstErr = p.firstErr
	}
	w.calls = append(w.calls, p.calls...)
}

// queries is the read ops the window completed.
func (w *window) queries() int64 {
	var n int64
	for _, c := range w.calls {
		n += int64(c.queries)
	}
	return n
}

// lat is the latency of every call of one kind, ms.
func (w *window) lat(kind int) []float64 {
	var out []float64
	for _, c := range w.calls {
		if c.kind == kind {
			out = append(out, c.ms())
		}
	}
	return out
}

// sliceLen is the slice length of quietTimings: long enough to hold a
// hundred calls of all but the batched workloads, short enough that a
// neighbour's bursts leave some slices of every window untouched.
const sliceLen = 250 * time.Millisecond

// openLoop sends op(i) on a fixed schedule of rate calls per second for d,
// from `senders` goroutines, whether or not earlier calls have returned. Each
// call is timed from when it was due, which charges a stall to every call it
// delayed; late is how far behind its schedule the generator sent each call.
func openLoop(d time.Duration, rate float64, senders int, op func(i int) error) (lat, late []float64, failed int64, firstErr string) {
	interval := time.Duration(float64(time.Second) / rate)
	total := int(d.Seconds() * rate)
	start := time.Now()
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= total {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				err := op(i)
				done := time.Now()
				mu.Lock()
				late = append(late, millis(sent.Sub(due)))
				if err != nil {
					failed++
					if firstErr == "" {
						firstErr = err.Error()
					}
				} else {
					lat = append(lat, millis(done.Sub(due)))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lat, late, failed, firstErr
}
