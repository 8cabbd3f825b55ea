package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	p2h "p2h"
	"p2h/internal/httpapi"
)

// newHTTPClient keeps at most conns keep-alive connections to one host: the
// harness never holds more connections than it has client goroutines.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
		IdleConnTimeout: time.Minute,
	}}
}

// postJSON posts a ready-made body and decodes a 200 answer into out.
func postJSON(hc *http.Client, url string, body []byte, out any) (respBytes int, err error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return len(raw), fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return len(raw), json.Unmarshal(raw, out)
}

const (
	servePool        = 4096 // distinct queries behind http-serve's Zipf draw
	serveZipfS       = 1.1
	serveBudgetShare = 0.01 // about 0.1 ms of tree work per uncached request
)

// servedQueries is the request stream http-serve sends and the server probes
// replay: a pool of distinct queries, the body and expected answer of each,
// and a fixed shuffle from Zipf rank to pool entry.
type servedQueries struct {
	pool     *p2h.Matrix
	opts     p2h.SearchOptions
	bodies   [][]byte
	expected [][]p2h.Result
	perm     []int
}

// servedQueries builds the stream once per fixture; the traced run's probes
// and the http-serve workload share it.
func (fx *fixture) servedQueries() (*servedQueries, error) {
	if fx.served != nil {
		return fx.served, nil
	}
	bc, err := fx.tree(treeBC)
	if err != nil {
		return nil, err
	}
	sq := &servedQueries{
		pool: fx.queryPool(servePool),
		opts: p2h.SearchOptions{K: topK, Budget: fx.budget(serveBudgetShare)},
	}
	// A budgeted search is deterministic in (tree, query, budget), and the
	// server promises bit-identical answers, cached or not: the direct
	// in-process search is the oracle for every pool entry.
	sq.expected = p2h.SearchBatch(bc, sq.pool, sq.opts, fx.cfg.procs)
	sq.bodies = make([][]byte, sq.pool.N)
	for i := range sq.bodies {
		body, err := json.Marshal(httpapi.SearchRequest{
			Query:             sq.pool.Row(i),
			SearchOptionsJSON: httpapi.SearchOptionsJSON{K: topK, Budget: sq.opts.Budget},
		})
		if err != nil {
			return nil, err
		}
		sq.bodies[i] = body
	}
	sq.perm = rand.New(rand.NewSource(fx.cfg.seed + 3)).Perm(sq.pool.N)
	fx.served = sq
	return sq, nil
}

// draws returns one Zipf(s=1.1) rank generator per client; draw maps a rank
// to a pool entry.
func (sq *servedQueries) draws(fx *fixture, clients int) []*rand.Zipf {
	zs := make([]*rand.Zipf, clients)
	for c := range zs {
		rng := rand.New(rand.NewSource(fx.cfg.seed + 100 + int64(c)))
		zs[c] = rand.NewZipf(rng, serveZipfS, 1, uint64(sq.pool.N-1))
	}
	return zs
}

func (sq *servedQueries) draw(z *rand.Zipf) int { return sq.perm[z.Uint64()] }

// httpServe is GOMAXPROCS closed-loop clients posting single searches to one
// daemon serving the plain BC-Tree under default ServerOptions.
type httpServe struct {
	fx   *fixture
	bc   p2h.Index
	d    *daemon
	sq   *servedQueries
	hc   *http.Client
	zipf []*rand.Zipf
}

func (w *httpServe) setup(fx *fixture) error {
	w.fx = fx
	var err error
	if w.bc, err = fx.tree(treeBC); err != nil {
		return err
	}
	if w.d, err = fx.bcDaemon(p2h.ServerOptions{}); err != nil {
		return err
	}
	if w.sq, err = fx.servedQueries(); err != nil {
		return err
	}
	w.hc = newHTTPClient(fx.cfg.procs)
	w.zipf = w.sq.draws(fx, fx.cfg.procs)
	return nil
}

func (w *httpServe) run(d time.Duration, tr *tracer) window {
	url := w.d.url + "/v1/indexes/bench/search"
	return closedLoop(d, w.fx.cfg.procs, []string{"http.search"}, tr, func(c, _ int) opResult {
		i := w.sq.draw(w.zipf[c])
		var resp httpapi.SearchResponse
		_, err := postJSON(w.hc, url, w.sq.bodies[i], &resp)
		if err == nil {
			err = sameResults(fromJSON(resp.Results), w.sq.expected[i])
		}
		if err != nil {
			return opResult{err: fmt.Errorf("pool query %d: %w", i, err)}
		}
		return opResult{queries: 1}
	})
}

func (w *httpServe) finish(*window) (map[string]metric, map[string]int, error) {
	return map[string]metric{}, map[string]int{}, nil
}

// recall: every answer must equal the direct search's, so the recall of the
// served answers is that oracle's on the queries that have ground truth.
func (w *httpServe) recall() float64 { return meanRecall(w.sq.expected[:w.fx.queries.N], w.fx.gt) }

func (w *httpServe) footprint() (int64, int) { return w.bc.IndexBytes(), w.bc.N() }

func (w *httpServe) timings(win *window) (float64, float64, int) { return quietTimings(win, 0.99) }

func (w *httpServe) params() map[string]any {
	return map[string]any{
		"loop": "closed", "clients": w.fx.cfg.procs, "budget": w.sq.opts.Budget,
		"pool": servePool, "zipf_s": serveZipfS, "server_options": "default (cache 1024)",
	}
}

func (w *httpServe) close() {
	if w.hc != nil {
		w.hc.CloseIdleConnections()
	}
}

const (
	routedBatch       = 16   // queries per /search_batch request
	routedBudgetShare = 0.02 // of n, per shard
)

// routed is GOMAXPROCS closed-loop clients posting 16-query batches to a
// router over two member daemons, one shard each.
type routed struct {
	fx       *fixture
	rc       *routedCluster
	hc       *http.Client
	budget   int
	bodies   [][]byte
	expected [][]p2h.Result
	order    []int // the seed's sending order of the batches
}

func (w *routed) setup(fx *fixture) error {
	w.fx = fx
	var err error
	if w.rc, err = fx.startCluster(p2h.ServerOptions{}); err != nil {
		return err
	}
	// The router splits a request's budget across shards by size, as the
	// in-process Sharded index does, so each of the two shards gets about
	// routedBudgetShare of n.
	w.budget = routedShards * fx.budget(routedBudgetShare)
	opts := p2h.SearchOptions{K: topK, Budget: w.budget}
	w.expected = make([][]p2h.Result, fx.queries.N)
	for qi := range w.expected {
		w.expected[qi], _ = w.rc.oracle.Search(fx.queries.Row(qi), opts)
	}
	for lo := 0; lo+routedBatch <= fx.queries.N; lo += routedBatch {
		req := httpapi.BatchSearchRequest{SearchOptionsJSON: httpapi.SearchOptionsJSON{K: topK, Budget: w.budget}}
		for qi := lo; qi < lo+routedBatch; qi++ {
			req.Queries = append(req.Queries, fx.queries.Row(qi))
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		w.bodies = append(w.bodies, body)
	}
	w.order = fx.order(len(w.bodies))
	w.hc = newHTTPClient(fx.cfg.procs)
	return nil
}

func (w *routed) run(d time.Duration, tr *tracer) window {
	url := w.rc.url + "/v1/indexes/bench/search_batch"
	return closedLoop(d, w.fx.cfg.procs, []string{"router.search_batch"}, tr, func(c, i int) opResult {
		b := w.order[(c*len(w.bodies)/w.fx.cfg.procs+i)%len(w.bodies)]
		var resp httpapi.BatchSearchResponse
		if _, err := postJSON(w.hc, url, w.bodies[b], &resp); err != nil {
			return opResult{err: fmt.Errorf("batch %d: %w", b, err)}
		}
		if len(resp.Results) != routedBatch {
			return opResult{err: fmt.Errorf("batch %d: %d result lists, want %d", b, len(resp.Results), routedBatch)}
		}
		for j, rs := range resp.Results {
			if err := sameResults(fromJSON(rs), w.expected[b*routedBatch+j]); err != nil {
				return opResult{err: fmt.Errorf("batch %d query %d: %w", b, j, err)}
			}
		}
		return opResult{queries: routedBatch}
	})
}

func (w *routed) finish(*window) (map[string]metric, map[string]int, error) {
	return map[string]metric{}, map[string]int{}, nil
}

func (w *routed) recall() float64         { return meanRecall(w.expected, w.fx.gt) }
func (w *routed) footprint() (int64, int) { return w.rc.oracle.IndexBytes(), w.rc.oracle.N() }

func (w *routed) timings(win *window) (float64, float64, int) { return quietTimings(win, 0.99) }

func (w *routed) params() map[string]any {
	return map[string]any{
		"loop": "closed", "clients": w.fx.cfg.procs, "batch": routedBatch, "budget": w.budget,
		"members": routedShards, "replicas": 0, "server_options": "default (cache 1024)",
	}
}

func (w *routed) close() {
	if w.hc != nil {
		w.hc.CloseIdleConnections()
	}
}

// routerCounters reads the router's /metrics exposition (through its handler,
// in memory) into the few counters the benchmark reports.
func routerCounters(rc *routedCluster) map[string]float64 {
	rec := httptest.NewRecorder()
	rc.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(name, "p2hd_router_member_requests_total{"):
			out["member_requests"] += v
		case name == `p2hd_router_requests_total{endpoint="search_batch",code="200"}`:
			out["batch_requests"] = v
		case name == `p2hd_router_requests_total{endpoint="search",code="200"}`:
			out["search_requests"] = v
		case name == "p2hd_router_hedges_total":
			out["hedges"] = v
		case name == "p2hd_router_fallbacks_total":
			out["fallbacks"] = v
		}
	}
	return out
}
