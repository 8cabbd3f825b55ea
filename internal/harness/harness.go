// Package harness runs the paper's evaluation: it prepares workloads
// (synthetic surrogate data, hyperplane queries, ground truth), evaluates
// indexes over candidate-budget sweeps, and formats the series and tables
// that reproduce Table II, Table III, and Figures 5-11.
//
// Every index it measures is built by p2h.New from a Method's Spec and
// searched through the p2h.Index every caller of the library gets; ground
// truth and recall are p2h.GroundTruth and p2h.Recall.
package harness

import (
	"fmt"
	"math"
	"time"

	p2h "p2h"

	"p2h/internal/dataset"
)

// Method names one competitor and the Spec its index is built from.
type Method struct {
	Name string
	Spec p2h.Spec
}

// Build builds the method's index over raw points. It panics where p2h.New
// returns an error, as p2h.NewLinearScan does: the Specs are this package's
// constants and the workloads its own, so an error is a bug here.
func (m Method) Build(raw *p2h.Matrix) p2h.Index {
	ix, err := p2h.New(raw, m.Spec)
	if err != nil {
		panic(fmt.Sprintf("harness: %s: %v", m.Name, err))
	}
	return ix
}

// BuildResult carries the Table III measurements for one build.
type BuildResult struct {
	Method    string
	BuildTime time.Duration
	Bytes     int64
	Index     p2h.Index
}

// BuildTimed builds the method's index and measures wall-clock time and size.
// The time includes New's one lifted copy of the data.
func (m Method) BuildTimed(raw *p2h.Matrix) BuildResult {
	start := time.Now()
	ix := m.Build(raw)
	return BuildResult{
		Method:    m.Name,
		BuildTime: time.Since(start),
		Bytes:     ix.IndexBytes(),
		Index:     ix,
	}
}

// Workload is one set of raw points, the hyperplane queries asked of it and
// their lazily computed ground truth. Prepare makes one from a surrogate
// spec; a caller with its own points and queries sets Raw and Queries.
type Workload struct {
	Spec    dataset.Spec
	Raw     *p2h.Matrix
	Queries *p2h.Matrix

	gt map[int][][]p2h.Result
}

// Prepare generates a workload for the spec: n raw points (spec default if
// n <= 0), deduplicated, with nq hyperplane queries. Deterministic in seed.
func Prepare(spec dataset.Spec, n, nq int, seed int64) *Workload {
	raw := dataset.Dedup(dataset.Generate(spec, n, seed))
	return &Workload{
		Spec:    spec,
		Raw:     raw,
		Queries: dataset.GenerateQueries(raw, nq, seed+1),
	}
}

// GroundTruth returns the exact top-k results per query, computed once.
func (w *Workload) GroundTruth(k int) [][]p2h.Result {
	if gt, ok := w.gt[k]; ok {
		return gt
	}
	if w.gt == nil {
		w.gt = make(map[int][][]p2h.Result)
	}
	gt := p2h.GroundTruth(w.Raw, w.Queries, k)
	w.gt[k] = gt
	return gt
}

// N returns the workload's point count.
func (w *Workload) N() int { return w.Raw.N }

// Eval measures one configuration: it runs every workload query through the
// index with opts and averages recall and wall-clock time.
type Eval struct {
	Budget    int     // the candidate budget searched with (0: exact)
	Recall    float64 // mean recall over queries
	QueryMS   float64 // mean wall-clock milliseconds per query
	Stats     p2h.Stats
	Profile   p2h.Profile // populated when opts.Profile was requested
	WallTotal time.Duration
}

// Run evaluates ix on every query of w under opts. If profile is true the
// per-phase breakdown is collected (at some timing overhead).
func Run(ix p2h.Index, w *Workload, opts p2h.SearchOptions, profile bool) Eval {
	opts = opts.Normalized()
	gt := w.GroundTruth(opts.K)
	ev := Eval{Budget: opts.Budget}
	var prof p2h.Profile
	if profile {
		opts.Profile = &prof
	}
	start := time.Now()
	for i := 0; i < w.Queries.N; i++ {
		res, st := ix.Search(w.Queries.Row(i), opts)
		ev.Recall += p2h.Recall(res, gt[i])
		ev.Stats.Add(st)
	}
	ev.WallTotal = time.Since(start)
	nq := float64(w.Queries.N)
	ev.Recall /= nq
	ev.QueryMS = ev.WallTotal.Seconds() * 1000 / nq
	ev.Profile = prof
	return ev
}

// BudgetFractions is the default candidate-fraction sweep for the
// time-recall curves (the paper's approximation knob).
var BudgetFractions = []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0}

// Sweep evaluates ix across the budget fractions and returns one Eval per
// fraction, in order.
func Sweep(ix p2h.Index, w *Workload, k int, fractions []float64, base p2h.SearchOptions) []Eval {
	if len(fractions) == 0 {
		fractions = BudgetFractions
	}
	out := make([]Eval, 0, len(fractions))
	for _, f := range fractions {
		opts := base
		opts.K = k
		opts.Budget = budgetFor(f, w.N())
		out = append(out, Run(ix, w, opts, false))
	}
	return out
}

func budgetFor(fraction float64, n int) int {
	b := int(math.Ceil(fraction * float64(n)))
	if b < 1 {
		b = 1
	}
	if b > n {
		b = n
	}
	return b
}

// FindBudget locates the smallest sweep budget reaching the target recall and
// returns its evaluation (Eval.Budget is that budget). If no fraction reaches
// the target the full-budget evaluation is returned. This pins the paper's
// "at about 80% recall" operating points (Figures 6, 8, 10).
func FindBudget(ix p2h.Index, w *Workload, k int, target float64, base p2h.SearchOptions) Eval {
	var last Eval
	for _, f := range BudgetFractions {
		opts := base
		opts.K = k
		opts.Budget = budgetFor(f, w.N())
		if last = Run(ix, w, opts, false); last.Recall >= target {
			break
		}
	}
	return last
}

// fmtBytes renders a byte count the way Table III does (MB with one digit).
func fmtBytes(b int64) string {
	return fmt.Sprintf("%.1f", float64(b)/(1024*1024))
}

// fmtSeconds renders a duration in seconds with one digit.
func fmtSeconds(d time.Duration) string {
	return fmt.Sprintf("%.1f", d.Seconds())
}
