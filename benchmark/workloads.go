package main

import (
	"fmt"
	"time"

	p2h "p2h"
)

// workload is one named traffic mix. set-up builds only what the workload
// measures; run may be called several times (warm-up, then the window) and
// carries its state across calls; finish runs once after the last window.
type workload interface {
	setup(fx *fixture) error
	// run drives the workload for d, checking every answer, recording a
	// span per call when tr is non-nil.
	run(d time.Duration, tr *tracer) window
	// finish does the after-window verification and returns the metrics
	// only this workload has, with the sample count behind each percentile.
	finish(win *window) (detail map[string]metric, samples map[string]int, err error)
	// recall is the mean recall@k of the workload's budgeted answers over
	// every query with ground truth, from a fixed pass (at set-up; on dyn-rw
	// over the recovered index, so after finish), never from whichever
	// queries a window happened to reach.
	recall() float64
	// footprint is the index the workload serves: structure bytes and points.
	footprint() (indexBytes int64, points int)
	// timings reduces a window to read ops per second and the tail latency
	// of the read call (at a fixed quantile: the highest its samples
	// support), by the statistic that repeats for this workload on a shared
	// host: itemTimings where one caller repeats the same items of work,
	// quietTimings where calls are many, concurrent and drawn at random.
	timings(win *window) (qps, tailMS float64, tailSamples int)
	// params records loop kind, client count and the like beside the numbers.
	params() map[string]any
	close()
}

// workloads is every workload by its final name, in BENCHMARK.json's order.
var workloads = []struct {
	name string
	make func() workload
}{
	{"tree-seq", func() workload { return &treeWorkload{} }},
	{"tree-batch", func() workload { return &treeWorkload{batch: treeBatchSize} }},
	{"http-serve", func() workload { return &httpServe{} }},
	{"dyn-rw", func() workload { return &dynRW{} }},
	{"routed", func() workload { return &routed{} }},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// newWorkload returns a fresh instance of the named workload, nil if unknown.
func newWorkload(name string) workload {
	for _, w := range workloads {
		if w.name == name {
			return w.make()
		}
	}
	return nil
}

// The five op types of the two tree workloads, in round-robin order. Kind 0
// is the read call lat_tail_ms (and the lat_p50_ms detail) describe.
var treeOps = []string{"bc-exact", "bt-exact", "bc-quant", "bc-budget", "bc-pred"}

const (
	opBCExact = iota
	opBTExact
	opBCQuant
	opBCBudget
	opBCPred
)

const (
	treeBatchSize   = 64   // queries per SearchBatch call on tree-batch
	treeBudgetShare = 0.05 // bc-budget verifies at most this share of the points
)

// treeWorkload is tree-seq (batch == 0: one Search per call) and tree-batch
// (batch queries per p2h.SearchBatch call): the same four trees, the same
// five op types, one caller, direct library calls. An item is a query
// (tree-seq) or a fixed group of 64 consecutive queries (tree-batch); a lap
// visits every item once, in the seed's order, with all five ops on each.
// The groups are fixed because which queries share a batch changes its cost.
type treeWorkload struct {
	batch        int
	fx           *fixture
	ix           [5]p2h.Index
	opts         [5]p2h.SearchOptions
	gtPred       [][]p2h.Result // ground truth under the sel10 predicate
	order        []int          // the seed's visiting order of the items
	budgetRecall float64

	// tree-seq only: the counters of each (op, query)'s first search, which
	// every later search of the pair must repeat exactly.
	first [5][]p2h.Stats
	seen  [5][]bool
}

func (w *treeWorkload) setup(fx *fixture) error {
	w.fx = fx
	if err := fx.buildTrees(treeBC, treeBall, treeQuant, treeAttr); err != nil {
		return err
	}
	for op, name := range []string{treeBC, treeBall, treeQuant, treeBC, treeAttr} {
		w.ix[op], _ = fx.tree(name)
		w.opts[op] = p2h.SearchOptions{K: topK}
	}
	w.opts[opBCBudget].Budget = fx.budget(treeBudgetShare)
	w.opts[opBCPred].Pred = p2h.TagIs("sel10")
	// The predicate's oracle shares no code with the attribute store: a
	// linear scan filtered by the rule the tags were assigned with.
	w.gtPred = p2h.SearchBatch(p2h.NewLinearScan(fx.data), fx.queries, p2h.SearchOptions{
		K: topK, Filter: func(id int32) bool { return id%10 == 0 },
	}, fx.cfg.procs)
	for op := range w.first {
		w.first[op] = make([]p2h.Stats, fx.queries.N)
		w.seen[op] = make([]bool, fx.queries.N)
	}
	w.order = fx.order(fx.queries.N / max(w.batch, 1))
	// A budgeted search is deterministic in (tree, query, budget): its recall
	// is measured here, over every query, whatever the window later reaches.
	w.budgetRecall = meanRecall(p2h.SearchBatch(w.ix[opBCBudget], fx.queries, w.opts[opBCBudget], fx.cfg.procs), fx.gt)
	return nil
}

func (w *treeWorkload) run(d time.Duration, tr *tracer) window {
	if w.batch > 0 {
		return closedLoop(d, 1, treeOps, tr, w.batchOp)
	}
	return closedLoop(d, 1, treeOps, tr, w.seqOp)
}

// seqOp is call i of tree-seq: op type i%5 on the next query of the lap.
func (w *treeWorkload) seqOp(_, i int) opResult {
	op, qi := i%len(treeOps), w.order[(i/len(treeOps))%len(w.order)]
	res, st := w.ix[op].Search(w.fx.queries.Row(qi), w.opts[op])
	r := opResult{kind: op, item: qi, queries: 1, err: w.check(op, qi, res)}
	if r.err == nil && w.seen[op][qi] && st != w.first[op][qi] {
		r.err = fmt.Errorf("%s query %d: counters %+v differ from the first search's %+v",
			treeOps[op], qi, st, w.first[op][qi])
	}
	w.first[op][qi], w.seen[op][qi] = st, true
	return r
}

// batchOp is call i of tree-batch: op type i%5 on the next group of the lap.
func (w *treeWorkload) batchOp(_, i int) opResult {
	op, b := i%len(treeOps), w.order[(i/len(treeOps))%len(w.order)]
	lo := b * w.batch
	res := p2h.SearchBatch(w.ix[op], w.fx.queryBatch(lo, w.batch), w.opts[op], w.fx.cfg.procs)
	r := opResult{kind: op, item: b, queries: w.batch}
	for j := range res {
		if err := w.check(op, lo+j, res[j]); err != nil && r.err == nil {
			r.err = err
		}
	}
	return r
}

func (w *treeWorkload) check(op, qi int, res []p2h.Result) error {
	var err error
	switch op {
	case opBCBudget:
		q := w.fx.queries.Row(qi)
		err = validResults(res, q, topK, func(id int32) []float32 {
			if id < 0 || int(id) >= w.fx.data.N {
				return nil
			}
			return w.fx.data.Row(int(id))
		})
	case opBCPred:
		err = sameResults(res, w.gtPred[qi])
	default:
		err = sameResults(res, w.fx.gt[qi])
	}
	if err != nil {
		return fmt.Errorf("%s query %d: %w", treeOps[op], qi, err)
	}
	return nil
}

func (w *treeWorkload) finish(win *window) (map[string]metric, map[string]int, error) {
	detail, samples := map[string]metric{}, map[string]int{}
	for op, name := range []string{"bc_exact_ms", "bt_exact_ms", "bc_quant_ms", "bc_budget_ms", "bc_pred_ms"} {
		lat := win.lat(op)
		detail[name] = metric{median(lat) / float64(max(w.batch, 1)), "ms"}
		samples[name] = len(lat)
	}
	return detail, samples, nil
}

func (w *treeWorkload) recall() float64 { return w.budgetRecall }

func (w *treeWorkload) footprint() (int64, int) {
	return w.ix[opBCExact].IndexBytes(), w.ix[opBCExact].N()
}

// timings: per query, over bc-exact's items: 256 queries on tree-seq; the
// costliest of the four groups on tree-batch.
func (w *treeWorkload) timings(win *window) (float64, float64, int) {
	return itemTimings(win, 0.95)
}

func (w *treeWorkload) params() map[string]any {
	p := map[string]any{
		"loop": "closed", "clients": 1, "ops": treeOps,
		"budget": w.opts[opBCBudget].Budget, "pred": "tag sel10",
	}
	if w.batch > 0 {
		p["batch"], p["batch_workers"] = w.batch, w.fx.cfg.procs
	}
	return p
}

func (w *treeWorkload) close() {}
