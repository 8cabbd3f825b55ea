// Command p2hserve drives the concurrent query-serving layer: it loads or
// generates a data set, builds an index of any registered kind through the
// p2h registry (or loads a saved index container), wraps it in a p2h.Server,
// replays a query stream from a file, stdin, or a generator against it from
// many concurrent clients, and reports throughput and latency percentiles.
//
// Usage:
//
//	p2hserve -set Sift -n 20000 -nq 500 -clients 8 -repeat 4
//	p2hserve -data data.fvecs -queries queries.fvecs -index dynamic -k 10
//	p2hserve -index sharded -spec '{"shards":8,"leaf_size":50}'
//	p2hserve -data data.fvecs -load index.p2h -queries queries.fvecs
//	awk-or-your-tool-emitting-text-queries | p2hserve -data data.fvecs -stdin
//
// Client mode load-tests a running p2hd daemon over HTTP instead of an
// in-process server, replaying the same query streams against its
// /v1/indexes/{name}/search endpoint (or /search_batch with -httpbatch).
// -url accepts a comma-separated list of daemons (or cluster routers) and
// round-robins requests across them:
//
//	p2hserve -url http://127.0.0.1:8080 -name trees -queries queries.fvecs -clients 8
//	p2hserve -url http://127.0.0.1:8080 -name trees -httpbatch 64 -nq 1000
//	p2hserve -url http://10.0.0.1:8080,http://10.0.0.2:8080 -name trees -nq 1000
//
// Queries arrive as fvecs rows (-queries) or as text lines of d+1
// space-separated floats, normal then offset (-stdin). Every query is
// answered through the server's worker slots and result
// cache; -compare additionally replays the identical workload as a
// sequential single-query loop on the bare index and reports the speedup.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	p2h "p2h"
	"p2h/internal/httpapi"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("p2hserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataPath  = fs.String("data", "", "fvecs file with the data points (default: generate -set)")
		set       = fs.String("set", "Sift", "surrogate data set to generate when -data is empty")
		n         = fs.Int("n", 10000, "points to generate when -data is empty")
		seed      = fs.Int64("seed", 1, "seed for data/query generation and index construction")
		indexKind = fs.String("index", "", "index kind to serve ("+strings.Join(p2h.Kinds(), ", ")+"; default: the -spec kind, else bctree)")
		specJSON  = fs.String("spec", "", "p2h.Spec as JSON, e.g. '{\"shards\":8,\"leaf_size\":50}' (-index overrides its kind)")
		loadPath  = fs.String("load", "", "serve a saved index container instead of building one")
		queryPath = fs.String("queries", "", "fvecs file with (normal; offset) query rows")
		useStdin  = fs.Bool("stdin", false, "read text queries from stdin: d+1 floats per line")
		nq        = fs.Int("nq", 200, "queries to generate when neither -queries nor -stdin is given")
		k         = fs.Int("k", 10, "neighbors per query")
		budget    = fs.Int("budget", 0, "candidate budget per query (0: exact)")
		clients   = fs.Int("clients", 8, "concurrent client goroutines replaying the stream")
		repeat    = fs.Int("repeat", 1, "times each client replays the full query stream")
		workers   = fs.Int("workers", 0, "server worker slots: searches executing at once (0: GOMAXPROCS)")
		cacheSize = fs.Int("cache", 1024, "result cache entries (0 or negative: disabled)")
		compare   = fs.Bool("compare", false, "also run the workload sequentially on the bare index")
		url       = fs.String("url", "", "client mode: load-test running p2hd daemon(s) at these comma-separated base URLs (round-robin) instead of serving in-process")
		name      = fs.String("name", "default", "client mode: the daemon index to query")
		httpBatch = fs.Int("httpbatch", 0, "client mode: group queries into search_batch requests of this size (0: per-query search)")
		timeoutMS = fs.Int("timeoutms", 0, "client mode: per-request timeout_ms sent to the daemon (0: the daemon's default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *url != "" {
		queries, err := clientQueries(*queryPath, *useStdin, stdin, *dataPath, *set, *n, *nq, *seed)
		if err != nil {
			fmt.Fprintf(stderr, "p2hserve: %v\n", err)
			return 1
		}
		return runClient(*url, *name, queries, p2h.SearchOptions{K: *k, Budget: *budget},
			*clients, *repeat, *httpBatch, *timeoutMS, stdout, stderr)
	}

	data, err := loadData(*dataPath, *set, *n, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "p2hserve: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "data: %d points, %d dimensions\n", data.N, data.D)

	buildStart := time.Now()
	var ix p2h.Index
	if *loadPath != "" {
		ix, err = p2h.Open(*loadPath)
		if err != nil {
			fmt.Fprintf(stderr, "p2hserve: %v\n", err)
			return 1
		}
		if ix.Dim() != data.D {
			fmt.Fprintf(stderr, "p2hserve: loaded index has dimension %d, data has %d\n", ix.Dim(), data.D)
			return 1
		}
		fmt.Fprintf(stdout, "index: %s loaded in %v (%d index bytes)\n",
			p2h.KindOf(ix), time.Since(buildStart).Round(time.Millisecond), ix.IndexBytes())
	} else {
		spec, err := makeSpec(*indexKind, *specJSON, *seed)
		if err != nil {
			fmt.Fprintf(stderr, "p2hserve: %v\n", err)
			return 1
		}
		ix, err = p2h.New(data, spec)
		if err != nil {
			fmt.Fprintf(stderr, "p2hserve: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "index: %s built in %v (%d index bytes)\n",
			p2h.KindOf(ix), time.Since(buildStart).Round(time.Millisecond), ix.IndexBytes())
	}

	queries, err := loadQueries(*queryPath, *useStdin, stdin, data, *nq, *seed+1)
	if err != nil {
		fmt.Fprintf(stderr, "p2hserve: %v\n", err)
		return 1
	}
	if queries.N == 0 {
		fmt.Fprintln(stderr, "p2hserve: no queries")
		return 1
	}
	if queries.D != data.D+1 {
		fmt.Fprintf(stderr, "p2hserve: queries have dimension %d, want %d (normal) + 1 (offset)\n", queries.D, data.D+1)
		return 1
	}
	fmt.Fprintf(stdout, "queries: %d hyperplanes x %d clients x %d repeats, k=%d budget=%d\n",
		queries.N, *clients, *repeat, *k, *budget)

	opts := p2h.SearchOptions{K: *k, Budget: *budget}
	cache := *cacheSize
	if cache <= 0 {
		cache = -1 // at the CLI, -cache 0 means off, not "use the default"
	}
	srv := p2h.NewServer(ix, p2h.ServerOptions{
		Workers:      *workers,
		CacheEntries: cache,
	})
	defer srv.Close()

	lat, wall := replay(srv.Search, queries, opts, *clients, *repeat)
	report(stdout, "server", lat, wall)
	st := srv.Stats()
	hitRate := 0.0
	if st.CacheHits+st.CacheMisses > 0 {
		hitRate = float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
	}
	meanBatch := 0.0
	if st.Batches > 0 {
		meanBatch = float64(st.Queries) / float64(st.Batches)
	}
	fmt.Fprintf(stdout, "server: %d serving calls (mean %.1f queries/call), cache hit rate %.1f%%\n",
		st.Batches, meanBatch, 100*hitRate)

	if *compare {
		seqLat, seqWall := replay(ix.Search, queries, opts, 1, *clients**repeat)
		report(stdout, "sequential", seqLat, seqWall)
		fmt.Fprintf(stdout, "speedup: %.2fx (server %.0f qps vs sequential %.0f qps)\n",
			qps(len(lat), wall)/qps(len(seqLat), seqWall), qps(len(lat), wall), qps(len(seqLat), seqWall))
	}
	return 0
}

func loadData(path, set string, n int, seed int64) (*p2h.Matrix, error) {
	if path != "" {
		return p2h.LoadFvecs(path)
	}
	return p2h.Dedup(p2h.GenerateDataset(set, n, seed)), nil
}

// clientQueries resolves the query stream for client mode: a queries file or
// stdin stream is used as-is; otherwise queries are generated from the same
// data the daemon was pointed at (-data, or the -set/-n surrogate), so both
// sides agree on the distribution.
func clientQueries(queryPath string, useStdin bool, stdin io.Reader, dataPath, set string, n, nq int, seed int64) (*p2h.Matrix, error) {
	switch {
	case queryPath != "":
		return p2h.LoadFvecs(queryPath)
	case useStdin:
		return readTextQueries(stdin)
	}
	data, err := loadData(dataPath, set, n, seed)
	if err != nil {
		return nil, err
	}
	return p2h.GenerateQueries(data, nq, seed+1), nil
}

// urlRing round-robins requests across a comma-separated member list, so one
// p2hserve run spreads load over every daemon (or router) it was pointed at.
type urlRing struct {
	urls []string
	next atomic.Int64
}

func newURLRing(list string) (*urlRing, error) {
	r := &urlRing{}
	for _, u := range strings.Split(list, ",") {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u != "" {
			r.urls = append(r.urls, u)
		}
	}
	if len(r.urls) == 0 {
		return nil, errors.New("-url: no base URLs")
	}
	return r, nil
}

func (r *urlRing) pick() string {
	return r.urls[int(r.next.Add(1)-1)%len(r.urls)]
}

// runClient replays the query stream against running p2hd daemons over
// HTTP — round-robin across every -url member — reusing the same
// concurrent-replay harness as the in-process mode, and reports
// client-observed throughput and latency.
func runClient(baseURL, name string, queries *p2h.Matrix, opts p2h.SearchOptions, clients, repeat, httpBatch, timeoutMS int, stdout, stderr io.Writer) int {
	ring, err := newURLRing(baseURL)
	if err != nil {
		fmt.Fprintf(stderr, "p2hserve: %v\n", err)
		return 1
	}
	client := &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        2 * clients * len(ring.urls),
			MaxIdleConnsPerHost: 2 * clients,
		},
	}

	// The daemon knows the index's dimensionality; fail fast on a mismatch
	// instead of spraying 400s. Any member that answers will do.
	var info httpapi.IndexInfoResponse
	infoErr := errors.New("no members")
	for _, u := range ring.urls {
		if infoErr = getJSON(client, u+"/v1/indexes/"+name, &info); infoErr == nil {
			break
		}
	}
	if infoErr != nil {
		fmt.Fprintf(stderr, "p2hserve: %v\n", infoErr)
		return 1
	}
	if len(ring.urls) > 1 {
		fmt.Fprintf(stdout, "members: %d, round-robin\n", len(ring.urls))
	}
	fmt.Fprintf(stdout, "daemon index %q: %s, %d points, d=%d\n", name, info.Kind, info.N, info.Dim)
	if queries.N == 0 {
		fmt.Fprintln(stderr, "p2hserve: no queries")
		return 1
	}
	if queries.D != info.Dim+1 {
		fmt.Fprintf(stderr, "p2hserve: queries have dimension %d, daemon index needs %d\n", queries.D, info.Dim+1)
		return 1
	}
	fmt.Fprintf(stdout, "queries: %d hyperplanes x %d clients x %d repeats, k=%d budget=%d\n",
		queries.N, clients, repeat, opts.K, opts.Budget)

	wireOpts := httpapi.SearchOptionsJSON{K: opts.K, Budget: opts.Budget, TimeoutMS: timeoutMS}
	var errCount atomic.Int64
	var firstErr atomic.Value
	var rs retryStats

	if httpBatch > 1 {
		lat, wall, total := replayHTTPBatch(client, ring, name, queries, wireOpts,
			clients, repeat, httpBatch, &rs, &errCount, &firstErr)
		fmt.Fprintf(stdout, "http_batch: %d queries in %d requests (batch=%d) in %v -> %.0f qps\n",
			total, len(lat), httpBatch, wall.Round(time.Millisecond), qps(total, wall))
		report(stdout, "http_batch request", lat, wall)
	} else {
		searchFn := func(q []float32, o p2h.SearchOptions) ([]p2h.Result, p2h.Stats) {
			var resp httpapi.SearchResponse
			err := postJSONRetry(client, ring.pick()+"/v1/indexes/"+name+"/search",
				httpapi.SearchRequest{Query: q, SearchOptionsJSON: wireOpts}, &resp, &rs)
			if err != nil {
				if errCount.Add(1) == 1 {
					firstErr.Store(err)
				}
				return nil, p2h.Stats{}
			}
			res := make([]p2h.Result, len(resp.Results))
			for i, r := range resp.Results {
				res[i] = p2h.Result{ID: r.ID, Dist: r.Dist}
			}
			return res, p2h.Stats{Candidates: resp.Stats.Candidates, IPCount: resp.Stats.IPCount}
		}
		lat, wall := replay(searchFn, queries, opts, clients, repeat)
		report(stdout, "http", lat, wall)
	}

	// The overload story of the run: how often the daemon shed (429) or was
	// transiently unreachable, and how many of those the backoff recovered.
	if shed, retries := rs.shed.Load(), rs.retries.Load(); shed > 0 || retries > 0 {
		fmt.Fprintf(stdout, "client: %d responses shed (429), %d retry attempts, %d requests exhausted retries\n",
			shed, retries, errCount.Load())
	}
	if n := errCount.Load(); n > 0 {
		fmt.Fprintf(stderr, "p2hserve: %d requests failed (first: %v)\n", n, firstErr.Load())
		return 1
	}
	// Server-side view of the same run (the first member's, under
	// round-robin).
	if err := getJSON(client, ring.urls[0]+"/v1/indexes/"+name, &info); err == nil {
		hitRate := 0.0
		if info.Stats.CacheHits+info.Stats.CacheMisses > 0 {
			hitRate = float64(info.Stats.CacheHits) / float64(info.Stats.CacheHits+info.Stats.CacheMisses)
		}
		meanBatch := 0.0
		if info.Stats.Batches > 0 {
			meanBatch = float64(info.Stats.Queries) / float64(info.Stats.Batches)
		}
		fmt.Fprintf(stdout, "daemon: %d queries served, %d serving calls (mean %.1f queries/call), cache hit rate %.1f%%\n",
			info.Stats.Queries, info.Stats.Batches, meanBatch, 100*hitRate)
	}
	return 0
}

// replayHTTPBatch posts search_batch requests of up to batch queries from
// each client and returns the per-request latencies, the wall time, and the
// total query count.
func replayHTTPBatch(client *http.Client, ring *urlRing, name string, queries *p2h.Matrix, opts httpapi.SearchOptionsJSON, clients, repeat, batch int, rs *retryStats, errCount *atomic.Int64, firstErr *atomic.Value) ([]time.Duration, time.Duration, int) {
	perClient := make([][]time.Duration, clients)
	var total atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat []time.Duration
			for rep := 0; rep < repeat; rep++ {
				for lo := 0; lo < queries.N; lo += batch {
					hi := lo + batch
					if hi > queries.N {
						hi = queries.N
					}
					qs := make([][]float32, 0, hi-lo)
					for i := lo; i < hi; i++ {
						qs = append(qs, queries.Row((i+c)%queries.N)) // stagger clients
					}
					var resp httpapi.BatchSearchResponse
					t0 := time.Now()
					err := postJSONRetry(client, ring.pick()+"/v1/indexes/"+name+"/search_batch",
						httpapi.BatchSearchRequest{Queries: qs, SearchOptionsJSON: opts}, &resp, rs)
					lat = append(lat, time.Since(t0))
					if err != nil {
						if errCount.Add(1) == 1 {
							firstErr.Store(err)
						}
						continue
					}
					total.Add(int64(len(qs)))
				}
			}
			perClient[c] = lat
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []time.Duration
	for _, lat := range perClient {
		all = append(all, lat...)
	}
	return all, wall, int(total.Load())
}

func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	return decodeJSONResponse(resp, url, out)
}

func postJSON(client *http.Client, url string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	return decodeJSONResponse(resp, url, out)
}

// apiError is a non-200 daemon answer, carrying what the retry policy keys
// on: the status code and any Retry-After suggestion.
type apiError struct {
	url        string
	status     int
	code       string
	msg        string
	retryAfter time.Duration
}

func (e *apiError) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("%s: %s (%s)", e.url, e.msg, e.code)
	}
	return fmt.Sprintf("%s: HTTP %d", e.url, e.status)
}

func decodeJSONResponse(resp *http.Response, url string, out any) error {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		ae := &apiError{url: url, status: resp.StatusCode}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			ae.retryAfter = time.Duration(secs) * time.Second
		}
		var e httpapi.ErrorResponse
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			ae.msg, ae.code = e.Error, e.Code
		}
		return ae
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// retryStats counts the overload-handling work the client did.
type retryStats struct {
	shed    atomic.Int64 // 429 responses received
	retries atomic.Int64 // retry attempts issued (any retryable cause)
}

// The retry schedule: exponential from retryBase, capped at retryCap, with
// full jitter (a uniform draw up to the current step) so a fleet of shed
// clients does not reconverge on the daemon in lockstep.
const (
	retryAttempts = 8
	retryBase     = 10 * time.Millisecond
	retryCap      = 2 * time.Second
)

// postJSONRetry is postJSON plus the overload policy: 429 responses (the
// daemon shedding; wait at least its Retry-After), 503s (draining or
// mid-swap), and transport-level errors (connection refused/reset mid-flood)
// are retried with jittered exponential backoff; anything else — including
// 504, where the deadline already spent the time budget a retry would need —
// fails fast.
func postJSONRetry(client *http.Client, url string, body, out any, rs *retryStats) error {
	backoff := retryBase
	for attempt := 0; ; attempt++ {
		err := postJSON(client, url, body, out)
		if err == nil {
			return nil
		}
		var ae *apiError
		transient := !errors.As(err, &ae) // transport error: no HTTP answer at all
		wait := backoff
		if !transient {
			switch ae.status {
			case http.StatusTooManyRequests:
				rs.shed.Add(1)
				if ae.retryAfter > wait {
					wait = ae.retryAfter
				}
			case http.StatusServiceUnavailable:
			default:
				return err
			}
		}
		if attempt >= retryAttempts {
			return err
		}
		rs.retries.Add(1)
		time.Sleep(wait/2 + time.Duration(rand.Int63n(int64(wait))))
		if backoff *= 2; backoff > retryCap {
			backoff = retryCap
		}
	}
}

// makeSpec combines the -index and -spec flags into one p2h.Spec (the JSON
// is the base, an explicit kind flag overrides it) and defaults the
// construction seed to the workload seed so runs stay reproducible.
func makeSpec(kind, specJSON string, seed int64) (p2h.Spec, error) {
	var spec p2h.Spec
	if specJSON != "" {
		if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
			return spec, fmt.Errorf("bad -spec JSON: %w", err)
		}
	}
	if kind != "" {
		spec.Kind = kind
	}
	if spec.Kind == "" {
		spec.Kind = p2h.KindBCTree
	}
	if spec.Seed == 0 {
		spec.Seed = seed
	}
	return spec, nil
}

func loadQueries(path string, useStdin bool, stdin io.Reader, data *p2h.Matrix, nq int, seed int64) (*p2h.Matrix, error) {
	switch {
	case path != "":
		return p2h.LoadFvecs(path)
	case useStdin:
		return readTextQueries(stdin)
	default:
		return p2h.GenerateQueries(data, nq, seed), nil
	}
}

// readTextQueries parses one query per line: d+1 space-separated floats,
// normal first, offset last. Blank lines and #-comments are skipped.
func readTextQueries(r io.Reader) (*p2h.Matrix, error) {
	var rows [][]float32
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		row := make([]float32, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 32)
			if err != nil {
				return nil, fmt.Errorf("stdin line %d: %v", line, err)
			}
			row[i] = float32(v)
		}
		if len(rows) > 0 && len(row) != len(rows[0]) {
			return nil, fmt.Errorf("stdin line %d: %d values, want %d", line, len(row), len(rows[0]))
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("stdin: no queries")
	}
	return p2h.FromRows(rows), nil
}

// replay fans the query stream out over clients goroutines, each running the
// full stream repeat times, and returns every per-query latency plus the
// wall-clock time of the whole replay.
func replay(search func([]float32, p2h.SearchOptions) ([]p2h.Result, p2h.Stats), queries *p2h.Matrix, opts p2h.SearchOptions, clients, repeat int) ([]time.Duration, time.Duration) {
	perClient := make([][]time.Duration, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat := make([]time.Duration, 0, repeat*queries.N)
			for rep := 0; rep < repeat; rep++ {
				for i := 0; i < queries.N; i++ {
					q := queries.Row((i + c) % queries.N) // stagger clients
					t0 := time.Now()
					search(q, opts)
					lat = append(lat, time.Since(t0))
				}
			}
			perClient[c] = lat
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []time.Duration
	for _, lat := range perClient {
		all = append(all, lat...)
	}
	return all, wall
}

func qps(queries int, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(queries) / wall.Seconds()
}

func report(w io.Writer, label string, lat []time.Duration, wall time.Duration) {
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	pct := func(p float64) time.Duration {
		if len(sorted) == 0 {
			return 0
		}
		i := int(p * float64(len(sorted)-1))
		return sorted[i]
	}
	fmt.Fprintf(w, "%s: %d queries in %v -> %.0f qps\n", label, len(lat), wall.Round(time.Millisecond), qps(len(lat), wall))
	fmt.Fprintf(w, "%s: latency mean %v p50 %v p95 %v p99 %v max %v\n",
		label,
		(sum / time.Duration(max(1, len(sorted)))).Round(time.Microsecond),
		pct(0.50).Round(time.Microsecond),
		pct(0.95).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond),
		pct(1.0).Round(time.Microsecond))
}
