package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	p2h "p2h"
	"p2h/internal/faultinject"
)

// chaosFixture is a daemon over one small BC-Tree with caller-chosen engine
// and handler tuning — the knobs the overload tests squeeze. Fault points are
// process-global, so these tests arm them via armFaults (never t.Parallel).
type chaosFixture struct {
	ts      *httptest.Server
	m       *Manager
	queries *p2h.Matrix
}

func newChaosFixture(t *testing.T, opts p2h.ServerOptions, hopts HandlerOptions) *chaosFixture {
	t.Helper()
	dir := t.TempDir()
	data := testMatrix(300, 8, 1)
	queries := p2h.GenerateQueries(data, 8, 2)
	ix, err := p2h.New(data, p2h.Spec{Kind: p2h.KindBCTree, LeafSize: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "trees.p2h")
	if err := p2h.SaveFile(path, ix); err != nil {
		t.Fatal(err)
	}
	m := NewManager(opts, 0)
	if _, _, err := m.Load("trees", IndexConfig{Path: path}, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandlerWithOptions(m, hopts))
	t.Cleanup(func() {
		ts.Close()
		_ = m.Close(t.Context())
	})
	return &chaosFixture{ts: ts, m: m, queries: queries}
}

// armFaults configures the global fault-injection registry for one test and
// guarantees it is disarmed afterwards, whatever the test does.
func armFaults(t *testing.T, spec string) {
	t.Helper()
	t.Cleanup(faultinject.Reset)
	if err := faultinject.Configure(spec); err != nil {
		t.Fatal(err)
	}
}

// search posts one query and returns the status, Retry-After header value
// (0 when absent) and decoded body.
func (f *chaosFixture) search(t *testing.T, req SearchRequest) (int, int, []byte) {
	t.Helper()
	return f.post(t, "search", req)
}

// post sends req to one of the trees index's endpoints.
func (f *chaosFixture) post(t *testing.T, endpoint string, req any) (int, int, []byte) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.ts.Client().Post(f.ts.URL+"/v1/indexes/trees/"+endpoint, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	retryAfter := 0
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if retryAfter, err = strconv.Atoi(ra); err != nil {
			t.Fatalf("unparsable Retry-After %q", ra)
		}
	}
	return resp.StatusCode, retryAfter, body.Bytes()
}

// TestChaosFloodShedsCleanly floods a one-worker, two-slot engine whose
// every search is slowed by an injected fault. The contract under overload:
// excess arrivals get clean 429s with a Retry-After hint, admitted requests
// still finish, the shed counter matches, and the daemon serves normally the
// moment the flood stops.
func TestChaosFloodShedsCleanly(t *testing.T) {
	f := newChaosFixture(t, p2h.ServerOptions{
		Workers: 1, CacheEntries: -1,
		MaxQueue: 2, MaxQueueDelay: time.Hour, // static limit only
	}, HandlerOptions{})
	armFaults(t, "engine.search=delay:5ms")

	const flood = 32
	var served, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, retryAfter, body := f.search(t, SearchRequest{
				Query: f.queries.Row(i % f.queries.N), SearchOptionsJSON: SearchOptionsJSON{K: 1},
			})
			switch status {
			case 200:
				served.Add(1)
			case 429:
				shed.Add(1)
				if retryAfter < 1 {
					t.Errorf("429 without a usable Retry-After (%d)", retryAfter)
				}
				e := unmarshal[ErrorResponse](t, body)
				if e.Code != "overloaded" {
					t.Errorf("429 code %q, want overloaded", e.Code)
				}
			default:
				t.Errorf("status %d (%s)", status, body)
			}
		}(i)
	}
	wg.Wait()
	if shed.Load() == 0 {
		t.Fatalf("flood of %d against a 2-slot queue shed nothing (served %d)", flood, served.Load())
	}
	if served.Load() == 0 {
		t.Fatal("everything was shed; admitted requests must still be served")
	}

	// The engine's own counter agrees with what clients saw, and the shed
	// total surfaces in the Prometheus exposition.
	infos := f.m.List()
	if n := infos[0].Stats.Shed; n != shed.Load() {
		t.Fatalf("Stats.Shed = %d, clients saw %d", n, shed.Load())
	}

	// Flood over: the daemon recovers immediately (reject-newest never
	// wedges the queue).
	faultinject.Reset()
	status, _, body := f.search(t, SearchRequest{
		Query: f.queries.Row(0), SearchOptionsJSON: SearchOptionsJSON{K: 1},
	})
	if status != 200 {
		t.Fatalf("post-flood search: status %d (%s)", status, body)
	}
}

// TestSearchBatchShedAsAWhole pins /search_batch's overload contract.
// Admission asks "is the backlog under the limit at arrival" and then counts
// the whole batch, so an idle engine serves a batch larger than MaxQueue; a
// second batch arriving behind it is shed as a unit — one immediate 429 with
// Retry-After, exactly like /search, never a per-row wait inside the handler.
func TestSearchBatchShedAsAWhole(t *testing.T) {
	f := newChaosFixture(t, p2h.ServerOptions{
		Workers: 1, CacheEntries: -1,
		MaxQueue: 4, MaxQueueDelay: time.Hour, // static limit only
	}, HandlerOptions{})
	armFaults(t, "engine.search=delay:300ms") // once per chunk: holds the big batch in its slot

	big := BatchSearchRequest{SearchOptionsJSON: SearchOptionsJSON{K: 2}}
	for i := 0; i < 32; i++ {
		big.Queries = append(big.Queries, f.queries.Row(i%f.queries.N))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		status, _, body := f.post(t, "search_batch", big)
		if status != 200 {
			t.Errorf("32-row batch on an idle engine with MaxQueue 4: status %d (%s)", status, body)
			return
		}
		if n := len(unmarshal[BatchSearchResponse](t, body).Results); n != len(big.Queries) {
			t.Errorf("%d result rows, want %d", n, len(big.Queries))
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); f.m.List()[0].Stats.Backlog != 32; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the big batch never entered the backlog: %+v", f.m.List()[0].Stats)
		}
	}

	small := BatchSearchRequest{Queries: big.Queries[:2], SearchOptionsJSON: SearchOptionsJSON{K: 2}}
	status, retryAfter, body := f.post(t, "search_batch", small)
	wantError(t, status, body, 429, "overloaded")
	if retryAfter < 1 {
		t.Errorf("429 without a usable Retry-After (%d)", retryAfter)
	}
	select {
	case <-done:
		t.Error("the shed batch waited for the admitted one instead of answering at once")
	default:
	}
	<-done
	if st := f.m.List()[0].Stats; st.Shed != 2 || st.Backlog != 0 {
		t.Errorf("after both batches: shed %d (want the 2 rows), backlog %d (want 0)", st.Shed, st.Backlog)
	}
}

// TestChaosDeadline504 pins the deadline path end to end: a client timeout_ms
// far below the injected search latency must come back 504
// deadline_exceeded, not hang and not 500.
func TestChaosDeadline504(t *testing.T) {
	f := newChaosFixture(t, p2h.ServerOptions{Workers: 1, CacheEntries: -1}, HandlerOptions{})
	armFaults(t, "engine.search=delay:80ms")

	start := time.Now()
	status, _, body := f.search(t, SearchRequest{
		Query: f.queries.Row(0), SearchOptionsJSON: SearchOptionsJSON{K: 1, TimeoutMS: 10},
	})
	wantError(t, status, body, 504, "deadline_exceeded")
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("504 took %v; the deadline did not bound the request", took)
	}

	// A clock-skew fault pushes deadlines into the past: every request
	// expires at the door.
	armFaults(t, "clock.skew=delay:-1h")
	status, _, body = f.search(t, SearchRequest{
		Query: f.queries.Row(0), SearchOptionsJSON: SearchOptionsJSON{K: 1, TimeoutMS: 1000},
	})
	if status != 504 {
		t.Fatalf("skewed clock: status %d (%s), want 504", status, body)
	}
}

// TestHealthzOverloadStates walks /healthz through its non-ok shapes:
// draining and mid-swap report 503 with a machine-readable reason (the load
// balancer contract), and a degraded index flips the degraded flag while the
// daemon stays 200 (degraded is alert-worthy, not route-away-worthy).
func TestHealthzOverloadStates(t *testing.T) {
	f := newChaosFixture(t, p2h.ServerOptions{Workers: 1}, HandlerOptions{})
	get := func() (int, HealthResponse) {
		t.Helper()
		resp, err := f.ts.Client().Get(f.ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}

	if status, h := get(); status != 200 || h.Status != "ok" || h.Degraded {
		t.Fatalf("healthy daemon: status %d, %+v", status, h)
	}

	// Degraded: the SLO ceiling is set on the engine; healthz stays 200 but
	// flags it.
	f.m.mu.RLock()
	srv := f.m.indexes["trees"].srv
	f.m.mu.RUnlock()
	srv.SetBudgetCeiling(100)
	if status, h := get(); status != 200 || !h.Degraded || h.DegradedIndexes != 1 {
		t.Fatalf("degraded daemon: status %d, %+v", status, h)
	}
	srv.SetBudgetCeiling(0)

	// Mid-swap: 503 with reason "swapping".
	f.m.swapping.Add(1)
	if status, h := get(); status != 503 || h.Status != "swapping" || h.Reason == "" {
		t.Fatalf("swapping daemon: status %d, %+v", status, h)
	}
	f.m.swapping.Add(-1)

	// Draining: 503 with reason "draining"; sticky until shutdown.
	f.m.BeginDrain()
	if status, h := get(); status != 503 || h.Status != "draining" || h.Reason == "" {
		t.Fatalf("draining daemon: status %d, %+v", status, h)
	}
}

// TestSLOControllerDegradesAndRecovers runs the feedback loop against real
// traffic: injected search latency breaches a microsecond-scale p99 target,
// the controller steps the budget ceiling down (visible in the index stats
// and /healthz), and once the fault clears and load stops, idle windows walk
// the index back to exact serving.
func TestSLOControllerDegradesAndRecovers(t *testing.T) {
	f := newChaosFixture(t, p2h.ServerOptions{Workers: 2, CacheEntries: -1}, HandlerOptions{})
	if err := f.m.StartSLO(SLOConfig{
		TargetP99:      Duration(time.Millisecond),
		Interval:       Duration(20 * time.Millisecond),
		MinWindow:      3,
		MinBudget:      16,
		BreachWindows:  1,
		RecoverWindows: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.m.StartSLO(SLOConfig{TargetP99: Duration(time.Second)}); err == nil {
		t.Fatal("second StartSLO did not error")
	}
	armFaults(t, "engine.search=delay:5ms")

	ceiling := func() int {
		t.Helper()
		return f.m.List()[0].Stats.BudgetCeiling
	}

	// Load until the controller engages.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f.search(t, SearchRequest{
					Query: f.queries.Row((g + i) % f.queries.N), SearchOptionsJSON: SearchOptionsJSON{K: 1},
				})
			}
		}(g)
	}
	deadline := time.Now().Add(10 * time.Second)
	for ceiling() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	engaged := ceiling()
	if engaged != 0 {
		// One search under the ceiling: its exact-budget request gets
		// clamped, which the DegradedQueries counter must record.
		f.search(t, SearchRequest{
			Query: f.queries.Row(0), SearchOptionsJSON: SearchOptionsJSON{K: 1},
		})
	}
	close(stop)
	wg.Wait()
	if engaged == 0 {
		t.Fatal("SLO controller never degraded under a 5ms search vs a 1ms target")
	}
	resp, err := f.ts.Client().Get(f.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !h.Degraded {
		t.Fatalf("degraded daemon: status %d, %+v (ceiling %d)", resp.StatusCode, h, engaged)
	}

	// Fault gone, load gone: idle windows count as recovery and the ceiling
	// walks back to zero.
	faultinject.Reset()
	deadline = time.Now().Add(10 * time.Second)
	for ceiling() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if c := ceiling(); c != 0 {
		t.Fatalf("ceiling stuck at %d after load receded", c)
	}
	if n := f.m.List()[0].Stats.DegradedQueries; n == 0 {
		t.Fatal("no query was ever clamped while degraded")
	}
}
