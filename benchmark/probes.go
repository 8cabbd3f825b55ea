package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	p2h "p2h"
	"p2h/internal/httpapi"
	"p2h/internal/vec"
)

// mallocs is the process's cumulative heap allocation count.
func mallocs() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}

// timeIt is the median wall time of reps calls, in nanoseconds.
func timeIt(reps int, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(ts)
}

// prepare builds everything the ladder and probes share.
func (l *lab) prepare() error {
	fx := l.fx
	if err := fx.buildTrees(treeBC, treeBall, treeQuant, treeAttr); err != nil {
		return err
	}
	l.bc, _ = fx.tree(treeBC)
	l.opts = p2h.SearchOptions{K: topK, Budget: fx.budget(serveBudgetShare)}
	var err error
	l.sq, err = fx.servedQueries()
	for _, layer := range []string{treeBC, treeBall} {
		l.set(layer+".build_s", fx.buildS[layer], "s")
	}
	return err
}

// vecProbes times the kernels on the fixture's own rows.
func (l *lab) vecProbes() error {
	fx := l.fx
	n, d := fx.data.N, fx.data.D
	q := fx.queries.Row(0)[:d]
	out := make([]float64, n)
	// The ladder left garbage behind; a collector marking it on the other
	// core would share the memory bus with the kernels being timed.
	runtime.GC()
	l.set("vec.dotblock_ns_row", timeIt(5, func() { vec.DotBlock(q, fx.data.Data, out) })/float64(n), "ns")

	// 32 packed queries against a block of rows: ns per (row, query) pair.
	const nq = 32
	qs := make([]float32, 0, nq*d)
	for i := 0; i < nq; i++ {
		qs = append(qs, fx.queries.Row(i)[:d]...)
	}
	m := min(n, 4096)
	multi := make([]float64, m*nq)
	l.set("vec.dotblockmulti_ns_row_q32",
		timeIt(5, func() { vec.DotBlockMulti(qs, nq, fx.data.Data[:m*d], multi) })/float64(m*nq), "ns")

	// The quantized filter over n rows of codes, with a threshold that
	// keeps nothing: the integer dot and the test, no survivors to append.
	rng := rand.New(rand.NewSource(fx.cfg.seed + 5))
	codes := make([]uint8, n*d)
	for i := range codes {
		codes[i] = uint8(rng.Intn(256))
	}
	w := make([]int16, d)
	for i := range w {
		w[i] = int16(rng.Intn(2001) - 1000)
	}
	sel := make([]int32, 0, n)
	l.set("vec.codeselect_ns_row",
		timeIt(5, func() { sel = vec.CodeSelect(codes, d, w, 0, 1e-3, 0, -1, sel[:0]) })/float64(n), "ns")
	return nil
}

// seqProbe runs the first probeQueries queries through ix one at a time,
// checks each against want, and returns mean ms per query and summed counters.
func (l *lab) seqProbe(what string, ix p2h.Index, opts p2h.SearchOptions, want [][]p2h.Result) (ms float64, sum p2h.Stats, answers [][]p2h.Result) {
	var total time.Duration
	for qi := 0; qi < probeQueries; qi++ {
		q := l.fx.queries.Row(qi)
		t0 := time.Now()
		res, st := ix.Search(q, opts)
		total += time.Since(t0)
		sum.Add(st)
		answers = append(answers, res)
		if want != nil {
			err := sameResults(res, want[qi])
			if err != nil {
				err = fmt.Errorf("%s, query %d: %w", what, qi, err)
			}
			l.check(err)
		}
	}
	return millis(total) / probeQueries, sum, answers
}

// treeProbes reads the traversal counters of sequential exact searches, which
// repeat exactly for a fixed seed, and times each sequential search loop.
func (l *lab) treeProbes() error {
	fx := l.fx
	exact := p2h.SearchOptions{K: topK}
	per := float64(probeQueries)
	pairs := per * float64(fx.data.N)
	nsRow := l.m["vec.dotblock_ns_row"].Value

	bcMS, bc, _ := l.seqProbe("bctree exact", l.bc, exact, fx.gt)
	l.set("bctree.exact_ms", bcMS, "ms")
	l.set("bctree.self_ms", bcMS-float64(bc.Candidates)/per*nsRow/1e6, "ms")
	l.set("bctree.cand_ratio", float64(bc.Candidates)/pairs, "fraction")
	l.set("bctree.ip_per_query", float64(bc.IPCount)/per, "count")
	l.set("bctree.nodes_visited", float64(bc.NodesVisited)/per, "count")
	l.set("bctree.pruned_node_ratio", ratio(float64(bc.PrunedNodes), float64(bc.NodesVisited)), "fraction")
	l.set("bctree.pruned_point_ratio", ratio(float64(bc.PrunedPoints), float64(bc.PrunedPoints+bc.Candidates)), "fraction")
	// Centre inner products got in O(1) by Lemma 2, over all centre products.
	l.set("bctree.collab_ip_ratio", ratio(float64(bc.CollabIPs), float64(bc.CollabIPs+bc.IPCount-bc.Candidates)), "fraction")

	for _, b := range []struct {
		name  string
		share float64
	}{{"1pct", 0.01}, {"5pct", 0.05}, {"20pct", 0.20}} {
		ms, _, answers := l.seqProbe("", l.bc, p2h.SearchOptions{K: topK, Budget: fx.budget(b.share)}, nil)
		l.set("bctree.recall_at_"+b.name, meanRecall(answers, fx.gt), "fraction")
		if b.share == treeBudgetShare {
			l.set("bctree.budget_ms", ms, "ms")
		}
	}

	ball, _ := fx.tree(treeBall)
	btMS, bt, _ := l.seqProbe("balltree exact", ball, exact, fx.gt)
	l.set("balltree.exact_ms", btMS, "ms")
	l.set("balltree.self_ms", btMS-float64(bt.Candidates)/per*nsRow/1e6, "ms")
	l.set("balltree.cand_ratio", float64(bt.Candidates)/pairs, "fraction")
	l.set("balltree.ip_per_query", float64(bt.IPCount)/per, "count")

	quant, _ := fx.tree(treeQuant)
	qMS, qz, _ := l.seqProbe("quantized bctree exact", quant, exact, fx.gt)
	l.set("quant.exact_ms", qMS, "ms")
	l.set("quant.verify_ratio", ratio(float64(qz.Candidates), float64(bc.Candidates)), "fraction")
	l.set("quant.bytes_overhead", ratio(float64(quant.IndexBytes()-l.bc.IndexBytes()), float64(l.bc.IndexBytes())), "fraction")

	// The same predicate pushed down as a Pred and applied as a Filter.
	attrTree, _ := fx.tree(treeAttr)
	filter := func(id int32) bool { return id%10 == 0 }
	filterMS, _, want := l.seqProbe("", attrTree, p2h.SearchOptions{K: topK, Filter: filter}, nil)
	predMS, pred, _ := l.seqProbe("bctree pred", attrTree, p2h.SearchOptions{K: topK, Pred: p2h.TagIs("sel10")}, want)
	l.set("attr.pred_ms", predMS, "ms")
	l.set("attr.skipped_point_ratio", float64(pred.FilterSkippedPoints)/pairs, "fraction")
	l.set("attr.pred_vs_filter_speedup", ratio(filterMS, predMS), "ratio")
	return nil
}

// execProbes compares the shared batched traversal with the per-query loop.
func (l *lab) execProbes() error {
	fx := l.fx
	exact := p2h.SearchOptions{K: topK}
	batch := fx.queryBatch(0, probeQueries)
	run := func(workers int) float64 {
		return timeIt(3, func() {
			for qi, res := range p2h.SearchBatch(l.bc, batch, exact, workers) {
				l.check(sameResults(res, fx.gt[qi]))
			}
		}) / 1e6 / probeQueries // ms per query
	}
	one := run(1)
	all := run(fx.cfg.procs)
	l.set("exec.batch_speedup", ratio(l.m["bctree.exact_ms"].Value, one), "ratio")
	l.set("exec.parallel_eff", ratio(one, all*float64(fx.cfg.procs)), "fraction")
	before := mallocs()
	p2h.SearchBatch(l.bc, batch, exact, 1)
	l.set("exec.allocs_per_query", (mallocs()-before)/probeQueries, "count")
	return nil
}

// serverProbes measures p2h.Server in process: the cached path, allocations,
// and what the dispatcher and cache do under http-serve's query stream sent
// by GOMAXPROCS concurrent callers.
func (l *lab) serverProbes() error {
	fx := l.fx
	ctx := context.Background()
	plain := p2h.NewServer(l.bc, noCache)
	before := mallocs()
	for qi := 0; qi < fx.queries.N; qi++ {
		res, _, err := plain.SearchCtx(ctx, fx.queries.Row(qi), l.opts)
		if err == nil {
			err = sameResults(res, l.sq.expected[qi])
		}
		l.check(err)
	}
	l.set("server.allocs_per_query", (mallocs()-before)/float64(fx.queries.N), "count")
	plain.Close()

	srv := p2h.NewServer(l.bc, p2h.ServerOptions{})
	defer srv.Close()
	var cached []float64
	for qi := 0; qi < fx.queries.N; qi++ {
		q := fx.queries.Row(qi)
		srv.Search(q, l.opts)
		t0 := time.Now()
		res, _ := srv.Search(q, l.opts)
		cached = append(cached, micros(time.Since(t0)))
		l.check(sameResults(res, l.sq.expected[qi]))
	}
	l.set("server.cached_us", median(cached), "us")

	zipf := l.sq.draws(fx, fx.cfg.procs)
	s0 := srv.Stats()
	burst := closedLoop(secondsDuration(fx.cfg.seconds/20), fx.cfg.procs, []string{"server.search"}, nil, func(c, _ int) opResult {
		i := l.sq.draw(zipf[c])
		res, _, err := srv.SearchCtx(ctx, l.sq.pool.Row(i), l.opts)
		if err == nil {
			err = sameResults(res, l.sq.expected[i])
		}
		return opResult{queries: 1, err: err}
	})
	l.win.merge(&burst)
	s1 := srv.Stats()
	hits, misses := float64(s1.CacheHits-s0.CacheHits), float64(s1.CacheMisses-s0.CacheMisses)
	l.set("server.cache_hit_ratio", ratio(hits, hits+misses), "fraction")
	l.set("server.queries_per_batch", ratio(float64(s1.Queries-s0.Queries), float64(s1.Batches-s0.Batches)), "count")
	l.set("server.shed", float64(s1.Shed-s0.Shed), "count")
	l.set("server.expired", float64(s1.Expired-s0.Expired), "count")
	return nil
}

// The open-loop rate steps and the limit a step must meet.
var rateSteps = []float64{250, 500, 1000, 2000, 4000}

const rateLimitMS = 20 // p99 from due time, and the lateness the generator may reach

// httpProbes measures the HTTP layer: request and response sizes and
// allocations through the handler in memory, the harness's own round-trip
// floor, and the highest fixed open-loop rate a default daemon sustains.
func (l *lab) httpProbes() error {
	fx := l.fx
	const searchPath = "/v1/indexes/bench/search"
	d, err := fx.bcDaemon(noCache)
	if err != nil {
		return err
	}
	var reqBytes, respBytes float64
	before := mallocs()
	for qi := 0; qi < fx.queries.N; qi++ {
		rec := httptest.NewRecorder()
		d.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, searchPath, bytes.NewReader(l.sq.bodies[qi])))
		reqBytes += float64(len(l.sq.bodies[qi]))
		respBytes += float64(rec.Body.Len())
	}
	nq := float64(fx.queries.N)
	l.set("httpapi.allocs_per_req", (mallocs()-before)/nq, "count")
	l.set("httpapi.req_bytes", reqBytes/nq, "B")
	l.set("httpapi.resp_bytes", respBytes/nq, "B")

	// A handler that does nothing: what net/http, the loopback and this
	// harness's client cost a request before the daemon does any work.
	nullURL, stopNull, err := serveLoopback(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"results":[]}`))
	}))
	if err != nil {
		return err
	}
	hc := newHTTPClient(fx.cfg.procs)
	defer hc.CloseIdleConnections()
	var rtt []float64
	for i := 0; i < fx.queries.N; i++ {
		var resp httpapi.SearchResponse
		t0 := time.Now()
		_, err := postJSON(hc, nullURL, l.sq.bodies[i], &resp)
		rtt = append(rtt, micros(time.Since(t0)))
		l.check(err)
	}
	stopNull()
	l.set("gen.null_rtt_us", median(rtt), "us")

	// The rate ladder, against a default daemon (cache on) with http-serve's
	// stream. Calls are timed from when they were due; a step passes when
	// nothing failed, p99 is within the limit and the generator kept up.
	served, err := fx.bcDaemon(p2h.ServerOptions{})
	if err != nil {
		return err
	}
	zipf := l.sq.draws(fx, 1)[0]
	stream := make([]int, 8192)
	for i := range stream {
		stream[i] = l.sq.draw(zipf)
	}
	step := secondsDuration(fx.cfg.seconds / 20)
	okRate, okLate := 0.0, 0.0
	var mu sync.Mutex // the senders of a step share the lab's failure count
	for _, rate := range rateSteps {
		// A call refused at a rate the daemon cannot hold fails the step; a
		// wrong answer fails the run.
		lat, late, refused, _ := openLoop(step, rate, fx.cfg.procs, func(i int) error {
			j := stream[i%len(stream)]
			var resp httpapi.SearchResponse
			if _, err := postJSON(hc, served.url+searchPath, l.sq.bodies[j], &resp); err != nil {
				return err
			}
			mu.Lock()
			l.check(sameResults(fromJSON(resp.Results), l.sq.expected[j]))
			mu.Unlock()
			return nil
		})
		if refused > 0 || percentile(lat, 0.99) > rateLimitMS || percentile(late, 0.99) > rateLimitMS {
			break
		}
		okRate, okLate = rate, percentile(late, 0.99)
	}
	l.set("httpapi.rate_ok_rps", okRate, "1/s")
	l.set("gen.late_p99_ms", okLate, "ms")
	return nil
}

// dynamicProbes measures internal/dynamic from outside: what a 25% delta
// costs a search, the two halves of a compaction, reads while it builds, the
// WAL's bytes and fsyncs per write, and replay on reopen.
func (l *lab) dynamicProbes() error {
	fx := l.fx
	st, err := fx.startDynamic("dynprobe", p2h.WALSyncAlways)
	if err != nil {
		return err
	}
	defer func() { _ = st.stop() }()

	// Journaled writes through the server, one at a time: the ack latency
	// of an idle stack, and what each write puts in the log.
	seedN := fx.dynSeedPoints()
	delta := min(seedN/4, fx.data.N-seedN)
	journaled := min(delta/2, 500)
	var writes []float64
	for i := 0; i < journaled; i++ {
		t0 := time.Now()
		h, err := st.srv.Insert(fx.data.Row(seedN + i))
		writes = append(writes, millis(time.Since(t0)))
		if err == nil && int(h) != seedN+i {
			err = fmt.Errorf("insert row %d: got handle %d", seedN+i, h)
		}
		l.check(err)
	}
	l.set("dynamic.write_p50_ms", median(writes), "ms")
	records, syncs := float64(st.wal.Records()), float64(st.wal.Syncs())
	if err := st.stop(); err != nil {
		return err
	}
	info, err := os.Stat(p2h.WALPath(st.container))
	if err != nil {
		return err
	}
	l.set("dynamic.wal_bytes_per_insert", ratio(float64(info.Size()), records), "B")
	l.set("dynamic.wal_syncs_per_insert", ratio(syncs, records), "count")

	// Reopen: load the container, then time the log's replay on top of it.
	f, err := os.Open(st.container)
	if err != nil {
		return err
	}
	ix, err := p2h.Load(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("reload: %w", err)
	}
	rec := ix.(*p2h.Dynamic)
	t0 := time.Now()
	wal, err := p2h.AttachWAL(rec, p2h.WALPath(st.container), p2h.WALSyncAlways)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	replay := time.Since(t0)
	if err := wal.Close(); err != nil {
		return err
	}
	if wal.Replayed() != journaled || rec.Handles() != seedN+journaled {
		l.check(fmt.Errorf("replay: %d records to %d handles, journaled %d to %d",
			wal.Replayed(), rec.Handles(), journaled, seedN+journaled))
	}
	l.set("dynamic.replay_us_per_rec", micros(replay)/float64(max(journaled, 1)), "us")

	// The recovered index, bare (no server): grow the delta to a quarter of
	// the seed, compare search cost with and without it, and time the two
	// functions a compaction is made of, with a reader running beside the build.
	exact := p2h.SearchOptions{K: topK}
	searchMS := func() float64 { // mean ms of 32 exact searches
		const reads = 32
		return timeIt(1, func() {
			for qi := 0; qi < reads; qi++ {
				rec.Search(fx.queries.Row(qi), exact)
			}
		}) / 1e6 / reads
	}
	rec.SetBackgroundCompaction(true) // no inline rebuild while the delta grows
	if build, install := rec.BeginCompaction(); build != nil {
		build()
		install()
	}
	compacted := searchMS()
	for i := journaled; i < delta; i++ {
		rec.Insert(fx.data.Row(seedN + i))
	}
	withDelta := searchMS()
	l.set("dynamic.delta_penalty", ratio(withDelta, compacted), "ratio")

	build, install := rec.BeginCompaction()
	if build == nil {
		return fmt.Errorf("dynamic probe: a %d-row delta left nothing to compact", delta)
	}
	stop := make(chan struct{})
	var during []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for qi := 0; ; qi++ {
			select {
			case <-stop:
				return
			default:
			}
			t0 := time.Now()
			rec.Search(fx.queries.Row(qi%fx.queries.N), exact)
			during = append(during, millis(time.Since(t0)))
		}
	}()
	t0 = time.Now()
	build()
	buildS := time.Since(t0).Seconds()
	close(stop)
	wg.Wait() // install mutates the index: the reader must be gone
	t0 = time.Now()
	install()
	l.set("dynamic.compact_install_ms", millis(time.Since(t0)), "ms")
	l.set("dynamic.compact_build_s", buildS, "s")
	l.set("dynamic.read_slowdown_in_compaction", ratio(mean(during), withDelta), "ratio")
	return nil
}

// persistProbes times the container round trip of the plain BC-Tree.
func (l *lab) persistProbes() error {
	fx := l.fx
	t0 := time.Now()
	path, err := fx.saveContainer("persist", l.bc)
	if err != nil {
		return err
	}
	l.set("persist.save_s", time.Since(t0).Seconds(), "s")
	t0 = time.Now()
	ix, err := p2h.Open(path)
	if err != nil {
		return err
	}
	l.set("persist.open_s", time.Since(t0).Seconds(), "s")
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	l.set("persist.container_bytes_per_point", float64(info.Size())/float64(l.bc.N()), "B")
	// A container that reopens must answer as the tree that was saved.
	for qi := 0; qi < probeQueries; qi++ {
		res, _ := ix.Search(fx.queries.Row(qi), p2h.SearchOptions{K: topK})
		l.check(sameResults(res, fx.gt[qi]))
	}
	return nil
}
