package server

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2h/internal/core"
)

// TestStressSearchMutateDrain hammers one engine with every concurrent
// behavior the overload machinery must survive at once — deadline-carrying
// searches, shedding, blocking searches, inserts and deletes, panicking
// Filters — then drains it mid-traffic. It pins three properties under
// -race: no error ever escapes the known set, no panic is lost (a
// panicking Filter always reaches its caller, even racing Drain), and the
// engine's goroutines all exit (no leak) with the backlog settled at zero.
func TestStressSearchMutateDrain(t *testing.T) {
	before := runtime.NumGoroutine()

	const d = 8
	data, queries := testData(64, d, 16, 9)
	m := newMutScan(d)
	for i := 0; i < data.N; i++ {
		m.Insert(data.Row(i)[:d])
	}
	// An injected per-search delay that polls the cancellation hook stands in
	// for a long traversal, so deadlines actually expire mid-search and the
	// backlog actually builds.
	slow := slowIndex{m, 200 * time.Microsecond, 50 * time.Microsecond}
	e := New(slow, m, Config{
		Workers: 2, CacheEntries: -1,
		MaxQueue: 8, MaxQueueDelay: time.Hour, // static limit only
	})

	stop := make(chan struct{})
	var served, shed, expired, mutations atomic.Int64
	var wg sync.WaitGroup

	// Deadline-carrying searchers: deadlines from 50µs to 2ms against a
	// 200µs search floor, so expiry, completion and shedding all happen.
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(),
					time.Duration(rng.Intn(1950)+50)*time.Microsecond)
				_, _, err := e.SearchCtx(ctx, queries.Row(i%queries.N), core.SearchOptions{K: 1})
				cancel()
				switch {
				case err == nil:
					served.Add(1)
				case errors.Is(err, ErrOverloaded):
					shed.Add(1)
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
					expired.Add(1)
				case errors.Is(err, ErrDraining):
					return
				default:
					t.Errorf("searcher %d: unexpected error %v", g, err)
					return
				}
			}
		}(g)
	}

	// Blocking searchers (no context): these never shed and never expire,
	// but submitting one can race Drain, which panics by contract — the
	// recover here asserts the panic arrives instead of vanishing into a
	// worker.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				done := func() (done bool) {
					defer func() {
						if r := recover(); r != nil {
							done = true // drained mid-submit: contract kept
						}
					}()
					res, _ := e.Search(queries.Row(i%queries.N), core.SearchOptions{K: 1})
					if len(res) != 1 {
						t.Errorf("blocking search %d: %d results, want 1", g, len(res))
						return true
					}
					served.Add(1)
					return false
				}()
				if done {
					return
				}
			}
		}(g)
	}

	// Panicking Filters: every one must reach its caller — a lost panic
	// (swallowed by a worker, or leaking the pool) fails the test.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("filter panic did not reach the caller")
					}
				}()
				e.Search(queries.Row(i%queries.N), core.SearchOptions{
					K:      1,
					Filter: func(int32) bool { panic("boom") },
				})
			}()
		}
	}()

	// Mutators: Insert/Delete intentionally have no closed-check, so they
	// must stay panic-free even when Drain lands between their lock
	// acquisitions.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + g)))
			var handles []int32
			for {
				select {
				case <-stop:
					return
				default:
				}
				if len(handles) == 0 || rng.Intn(2) == 0 {
					h, err := e.Insert(data.Row(rng.Intn(data.N))[:d])
					if err != nil {
						t.Errorf("mutator %d: insert: %v", g, err)
						return
					}
					handles = append(handles, h)
				} else {
					h := handles[len(handles)-1]
					handles = handles[:len(handles)-1]
					if _, err := e.Delete(h); err != nil {
						t.Errorf("mutator %d: delete: %v", g, err)
						return
					}
				}
				mutations.Add(1)
			}
		}(g)
	}

	// Let the storm run, then drain while traffic is still in flight: the
	// stop signal fires after Drain begins, so late submissions race it.
	time.Sleep(150 * time.Millisecond)
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelDrain()
	go func() {
		time.Sleep(5 * time.Millisecond)
		close(stop)
	}()
	if err := e.Drain(drainCtx); err != nil {
		t.Fatalf("drain under load: %v", err)
	}
	wg.Wait()

	if served.Load() == 0 {
		t.Fatal("nothing was served; the storm never exercised the engine")
	}
	if expired.Load() == 0 {
		t.Error("no deadline ever expired; the deadlines were not tight enough to test cancellation")
	}
	if mutations.Load() == 0 {
		t.Error("no mutation landed; the mutators never ran")
	}
	t.Logf("served=%d shed=%d expired=%d mutations=%d stats=%+v",
		served.Load(), shed.Load(), expired.Load(), mutations.Load(), e.Stats())

	if _, _, err := e.SearchCtx(context.Background(), queries.Row(0), core.SearchOptions{K: 1}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain SearchCtx err = %v, want ErrDraining", err)
	}
	if st := e.Stats(); st.Backlog != 0 {
		t.Fatalf("Backlog = %d after drain, want 0", st.Backlog)
	}

	// Goroutine leak check: everything the engine spawned must exit. Allow
	// brief settling (timer goroutines, the runtime's own churn).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+3 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after drain\n%s",
				before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
