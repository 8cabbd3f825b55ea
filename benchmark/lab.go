package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	p2h "p2h"
	"p2h/internal/httpapi"
	"p2h/internal/vec"
)

// lab is the traced run's workload-independent part: the layer ladder and the
// per-layer probes, all single-threaded unless a probe says otherwise, all
// over the fixture every workload shares. It fills m with the per-layer
// metrics and counts every answer it checked in win.
type lab struct {
	fx  *fixture
	tr  *tracer
	m   map[string]metric
	win window

	bc   p2h.Index
	opts p2h.SearchOptions // the ladder's query options: http-serve's budget
	sq   *servedQueries
	dur  map[string][]float64 // ladder span durations by rung, µs, per query
}

const (
	ladderFloorQueries = 32 // full DotBlock scans are slow; the floor needs few
	probeQueries       = 64 // sequential searches behind every counter probe
)

// noCache is the serving configuration of every ladder rung: each request
// must reach the tree, or the rungs would not be doing the same work.
var noCache = p2h.ServerOptions{CacheEntries: -1}

func (l *lab) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

// check counts one verified answer.
func (l *lab) check(err error) {
	l.win.attempted++
	if err != nil {
		l.win.fail(err)
	}
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// rung times one call into a layer for request qi, records its span under
// parent, checks its answer against want, and returns the span id.
func (l *lab) rung(name string, parent int64, qi int, want []p2h.Result, call func() ([]p2h.Result, map[string]int64, error)) int64 {
	t0 := time.Now()
	got, counts, err := call()
	t1 := time.Now()
	if err == nil && want != nil {
		err = sameResults(got, want)
	}
	if err != nil {
		err = fmt.Errorf("ladder %s, query %d: %w", name, qi, err)
	}
	l.check(err)
	l.dur[name] = append(l.dur[name], micros(t1.Sub(t0)))
	return l.tr.add(name, parent, int64(qi), t0, t1, counts)
}

// selfTime is the median over requests of a rung's span minus the span one
// boundary inside it.
func (l *lab) selfTime(outer, inner string) float64 {
	n := min(len(l.dur[outer]), len(l.dur[inner]))
	diffs := make([]float64, n)
	for i := range diffs {
		diffs[i] = l.dur[outer][i] - l.dur[inner][i]
	}
	return median(diffs)
}

// ladder sends every query, one at a time, through each boundary in turn:
// vec.DotBlock floor -> BCTree.Search -> p2h.SearchBatch -> Server.SearchCtx
// -> the httpapi handler in memory -> loopback HTTP, and separately the
// router over its two member legs. A rung's self time is its span minus the
// span one boundary inside it.
func (l *lab) ladder() error {
	fx := l.fx
	srv := p2h.NewServer(l.bc, noCache)
	defer srv.Close()
	d, err := fx.bcDaemon(noCache)
	if err != nil {
		return err
	}
	rc, err := fx.startCluster(noCache)
	if err != nil {
		return err
	}
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	ctx := context.Background()
	wire := httpapi.SearchOptionsJSON{K: topK, Budget: l.opts.Budget}
	rows := fx.data.N
	scanOut := make([]float64, rows)
	const searchPath = "/v1/indexes/bench/search"

	for qi := 0; qi < fx.queries.N; qi++ {
		q := fx.queries.Row(qi)
		// Untimed: the answer every rung must give, and a first touch of
		// the tree so no rung pays the cold caches for the others.
		want, _ := l.bc.Search(q, l.opts)
		body, err := json.Marshal(httpapi.SearchRequest{Query: q, SearchOptionsJSON: wire})
		if err != nil {
			return err
		}
		// Outermost first, so each span can name the span that encloses it.
		id := l.rung("httpapi.wire", 0, qi, want, func() ([]p2h.Result, map[string]int64, error) {
			var resp httpapi.SearchResponse
			n, err := postJSON(hc, d.url+searchPath, body, &resp)
			return fromJSON(resp.Results), map[string]int64{"req_bytes": int64(len(body)), "resp_bytes": int64(n)}, err
		})
		id = l.rung("httpapi.handler", id, qi, want, func() ([]p2h.Result, map[string]int64, error) {
			var resp httpapi.SearchResponse
			rec := httptest.NewRecorder()
			d.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, searchPath, bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				return nil, nil, fmt.Errorf("status %d: %s", rec.Code, rec.Body)
			}
			err := json.Unmarshal(rec.Body.Bytes(), &resp)
			return fromJSON(resp.Results), nil, err
		})
		id = l.rung("server.search", id, qi, want, func() ([]p2h.Result, map[string]int64, error) {
			res, _, err := srv.SearchCtx(ctx, q, l.opts)
			return res, nil, err
		})
		id = l.rung("exec.batch", id, qi, want, func() ([]p2h.Result, map[string]int64, error) {
			return p2h.SearchBatch(l.bc, fx.queryBatch(qi, 1), l.opts, 1)[0], nil, nil
		})
		id = l.rung("bctree.search", id, qi, want, func() ([]p2h.Result, map[string]int64, error) {
			res, st := l.bc.Search(q, l.opts)
			return res, map[string]int64{
				"candidates": st.Candidates, "ip_count": st.IPCount, "nodes_visited": st.NodesVisited,
			}, nil
		})
		if qi < ladderFloorQueries {
			l.rung("vec.scan", id, qi, nil, func() ([]p2h.Result, map[string]int64, error) {
				vec.DotBlock(q[:fx.data.D], fx.data.Data, scanOut)
				return nil, map[string]int64{"rows": int64(rows)}, nil
			})
		}

		// The routed chain: the router's answer must equal the in-process
		// Sharded index's; its self time is what it adds to its slowest leg.
		budget := routedShards * l.opts.Budget
		ropts := httpapi.SearchOptionsJSON{K: topK, Budget: budget}
		rwant, _ := rc.oracle.Search(q, p2h.SearchOptions{K: topK, Budget: budget})
		rbody, err := json.Marshal(httpapi.SearchRequest{Query: q, SearchOptionsJSON: ropts})
		if err != nil {
			return err
		}
		router := l.rung("cluster.router", 0, qi, rwant, func() ([]p2h.Result, map[string]int64, error) {
			var resp httpapi.SearchResponse
			_, err := postJSON(hc, rc.url+searchPath, rbody, &resp)
			return fromJSON(resp.Results), nil, err
		})
		var slowest float64
		for si, name := range rc.names {
			// The shard's share of the budget, as the router derives it.
			share := (int64(budget)*int64(len(rc.plan[si])) + int64(rows) - 1) / int64(rows)
			lbody, err := json.Marshal(httpapi.SearchRequest{
				Query: q, SearchOptionsJSON: httpapi.SearchOptionsJSON{K: topK, Budget: int(max(share, 1))},
			})
			if err != nil {
				return err
			}
			l.rung("cluster.member_leg", router, qi, nil, func() ([]p2h.Result, map[string]int64, error) {
				var resp httpapi.SearchResponse
				_, err := postJSON(hc, rc.members[si].url+"/v1/indexes/"+name+"/search", lbody, &resp)
				return nil, map[string]int64{"shard": int64(si)}, err
			})
			legs := l.dur["cluster.member_leg"]
			slowest = max(slowest, legs[len(legs)-1])
		}
		l.dur["cluster.slowest_leg"] = append(l.dur["cluster.slowest_leg"], slowest)
	}

	l.set("vec.scan_floor_ms", median(l.dur["vec.scan"])/1e3, "ms")
	l.set("exec.self_us", l.selfTime("exec.batch", "bctree.search"), "us")
	l.set("server.self_us", l.selfTime("server.search", "exec.batch"), "us")
	l.set("httpapi.handler_self_us", l.selfTime("httpapi.handler", "server.search"), "us")
	l.set("httpapi.wire_self_us", l.selfTime("httpapi.wire", "httpapi.handler"), "us")
	l.set("cluster.router_self_us", l.selfTime("cluster.router", "cluster.slowest_leg"), "us")
	after := routerCounters(rc)
	l.set("cluster.member_reqs_per_req", ratio(after["member_requests"], after["search_requests"]), "count")
	l.set("cluster.hedges", after["hedges"], "count")
	l.set("cluster.fallbacks", after["fallbacks"], "count")
	return nil
}

// runTraced is the -trace 1 run: one set-up, the ladder and the probes, then
// the workload itself untraced and traced, three eighths of a window each.
func runTraced(cfg config, tr *tracer, stderr io.Writer) (*runDoc, error) {
	spec, err := loadSpec()
	if err != nil {
		return nil, err
	}
	fx, err := newFixture(cfg)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	w := newWorkload(cfg.workload)
	if err := w.setup(fx); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer w.close()

	l := &lab{fx: fx, tr: tr, m: map[string]metric{}, dur: map[string][]float64{}}
	for _, step := range []func() error{
		l.prepare, l.ladder, l.vecProbes, l.treeProbes, l.execProbes,
		l.serverProbes, l.httpProbes, l.dynamicProbes, l.persistProbes,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(stderr, "%s: ladder and probes done, %d spans, %d answers checked\n",
		cfg.workload, tr.len(), l.win.attempted)

	// The workload, untraced (its timings are per-layer metrics: see
	// workloadTimings) then traced, for three eighths of a window each: equal
	// lengths, because both statistics find faster calls in a longer window.
	// The ratio of the two rates is what recording a span per call costs.
	d := secondsDuration(cfg.seconds * 3 / 8)
	w.run(warmup(cfg), nil)
	plain := w.run(d, nil)
	traced := w.run(d, tr)
	detail, samples, err := w.finish(&traced)
	if err != nil {
		return nil, err
	}
	timings, timingSamples := workloadTimings(w, &plain)
	for name, m := range timings {
		l.m[name] = m
	}
	for name, n := range timingSamples {
		samples[name] = n
	}
	tracedQPS, _, _ := w.timings(&traced)
	l.set("trace.overhead_ratio", ratio(tracedQPS, timings["workload.qps"].Value), "ratio")
	detail["trace.spans"] = metric{float64(tr.len()), "count"}

	doc := newDoc(cfg, fx, w)
	l.win.merge(&plain)
	l.win.merge(&traced)
	doc.Attempted, doc.Failed, doc.Error = l.win.attempted, l.win.failed, l.win.firstErr
	doc.Correct = l.win.failed == 0
	doc.Metrics, doc.Detail, doc.Samples = l.m, detail, samples
	if err := checkMetrics(doc.Metrics, spec.PerLayer, false); err != nil {
		return nil, err
	}
	return doc, nil
}
