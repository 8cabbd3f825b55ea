package harness

import (
	"fmt"
	"io"
	"math"
	"strings"

	p2h "p2h"

	"p2h/internal/core"
	"p2h/internal/dataset"
)

// Config parameterizes one experiment run. Zero values select the defaults
// DESIGN.md documents for the scaled reproduction.
type Config struct {
	// Scale multiplies every spec's default point count (default 1.0).
	Scale float64
	// NQ is the number of hyperplane queries per data set (default 50;
	// the paper uses 100).
	NQ int
	// K is the top-k for the time-recall experiments (default 10).
	K int
	// Seed drives data generation and index construction (default 1).
	Seed int64
	// Sets restricts the experiment to the named data sets; nil runs the
	// experiment's paper defaults.
	Sets []string
	// Params carries the method construction parameters.
	Params Params
	// Progress, if non-nil, receives one line per completed step.
	Progress io.Writer
}

func (c Config) normalized() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.NQ <= 0 {
		c.NQ = 50
	}
	if c.K <= 0 {
		c.K = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Params.MaxLambda == 0 {
		// Keep NH/FH tractable on the very high-dimensional surrogates
		// (Trevi d=4096, P53 d=5408) without silently skipping them.
		c.Params.MaxLambda = 16384
	}
	return c
}

func (c Config) logf(format string, args ...interface{}) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, format+"\n", args...)
	}
}

// resolveSets maps cfg.Sets to specs, or returns the defaults.
func (c Config) resolveSets(defaults []dataset.Spec) ([]dataset.Spec, error) {
	if len(c.Sets) == 0 {
		return defaults, nil
	}
	out := make([]dataset.Spec, 0, len(c.Sets))
	for _, name := range c.Sets {
		spec, ok := dataset.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown data set %q (known: %s)",
				name, strings.Join(dataset.Names(), ", "))
		}
		out = append(out, spec)
	}
	return out, nil
}

func (c Config) scaledN(spec dataset.Spec) int {
	n := int(math.Round(float64(spec.ScaledN) * c.Scale))
	if n < 64 {
		n = 64
	}
	return n
}

func (c Config) workload(spec dataset.Spec) *Workload {
	return Prepare(spec, c.scaledN(spec), c.NQ, c.Seed)
}

func (c Config) defaultMethods(d int) []Method { return DefaultMethods(c.Params, d) }

// Experiments lists the runnable experiment names in paper order.
func Experiments() []string {
	return []string{"table2", "table3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "ablation"}
}

// RunExperiment dispatches an experiment by name.
func RunExperiment(name string, cfg Config) (string, error) {
	switch name {
	case "table2":
		return Table2(cfg)
	case "table3":
		return Table3(cfg)
	case "fig5":
		return Fig5(cfg)
	case "fig6":
		return Fig6(cfg)
	case "fig7":
		return Fig7(cfg)
	case "fig8":
		return Fig8(cfg)
	case "fig9":
		return Fig9(cfg)
	case "fig10":
		return Fig10(cfg)
	case "fig11":
		return Fig11(cfg)
	case "ablation":
		return Ablation(cfg)
	}
	return "", fmt.Errorf("harness: unknown experiment %q (known: %s)",
		name, strings.Join(Experiments(), ", "))
}

// Table2 reproduces Table II: the statistics of the (surrogate) data sets.
func Table2(cfg Config) (string, error) {
	cfg = cfg.normalized()
	specs, err := cfg.resolveSets(dataset.Catalog())
	if err != nil {
		return "", err
	}
	t := &Table{
		Title:  "Table II: statistics of data sets (synthetic surrogates; paper columns + surrogate family)",
		Header: []string{"Data Set", "Paper n", "d", "Repro n", "Repro Size (MB)", "Data Type", "Family"},
	}
	for _, spec := range specs {
		w := cfg.workload(spec)
		t.AddRow(
			spec.Name,
			fmt.Sprintf("%d", spec.PaperN),
			fmt.Sprintf("%d", spec.RawDim),
			fmt.Sprintf("%d", w.Raw.N),
			fmtBytes(w.Raw.Bytes()),
			spec.DataType,
			spec.Family.String(),
		)
		cfg.logf("table2: %s done", spec.Name)
	}
	return t.String(), nil
}

// table3Methods is the paper's Table III column order over d-dimensional raw
// points: trees first, then the hashing schemes at lambda = d and lambda = 8d.
func table3Methods(p Params, d int) []Method {
	p1, p8 := p, p
	p1.LambdaFactor = 1
	p8.LambdaFactor = 8
	nh1, nh8, fh1, fh8 := NH(p1, d), NH(p8, d), FH(p1, d), FH(p8, d)
	nh1.Name = "NH(l=d)"
	nh8.Name = "NH(l=8d)"
	fh1.Name = "FH(l=d)"
	fh8.Name = "FH(l=8d)"
	return []Method{BCTree(p), BallTree(p), nh1, nh8, fh1, fh8}
}

// Table3 reproduces Table III: indexing time and index size per method.
func Table3(cfg Config) (string, error) {
	cfg = cfg.normalized()
	specs, err := cfg.resolveSets(dataset.SmallSets())
	if err != nil {
		return "", err
	}
	header := []string{"Data Set"}
	for _, m := range table3Methods(cfg.Params, 0) { // names only: they do not depend on d
		header = append(header, m.Name+" Time(s)", m.Name+" Size(MB)")
	}
	t := &Table{
		Title:  "Table III: indexing time (seconds) and index size (MB)",
		Header: header,
	}
	for _, spec := range specs {
		w := cfg.workload(spec)
		row := []string{spec.Name}
		for _, m := range table3Methods(cfg.Params, spec.RawDim) {
			br := m.BuildTimed(w.Raw)
			row = append(row, fmtSeconds(br.BuildTime), fmtBytes(br.Bytes))
			cfg.logf("table3: %s / %s built in %v", spec.Name, m.Name, br.BuildTime)
		}
		t.AddRow(row...)
	}
	return t.String(), nil
}

// timeRecallFigure renders one time-recall figure: for every data set, one
// series per method (methods are given the set's dimension) over the
// budget-fraction sweep.
func timeRecallFigure(cfg Config, title string, specs []dataset.Spec,
	methods func(d int) []Method, base func(m Method) p2h.SearchOptions) (string, error) {
	var b strings.Builder
	for _, spec := range specs {
		w := cfg.workload(spec)
		var series []Series
		for _, m := range methods(spec.RawDim) {
			ix := m.Build(w.Raw)
			opts := p2h.SearchOptions{}
			if base != nil {
				opts = base(m)
			}
			evals := Sweep(ix, w, cfg.K, nil, opts)
			s := Series{Name: m.Name}
			for _, ev := range evals {
				s.Points = append(s.Points, Point{X: ev.Recall * 100, Y: ev.QueryMS})
			}
			series = append(series, s)
			cfg.logf("%s: %s / %s swept", title, spec.Name, m.Name)
		}
		b.WriteString(FormatSeries(
			fmt.Sprintf("%s — %s (d=%d, n=%d), k=%d", title, spec.Name, spec.RawDim, w.N(), cfg.K),
			"recall%", "ms/query", series))
	}
	return b.String(), nil
}

// Fig5 reproduces Figure 5: query time vs recall for the four methods.
func Fig5(cfg Config) (string, error) {
	cfg = cfg.normalized()
	specs, err := cfg.resolveSets(dataset.SmallSets())
	if err != nil {
		return "", err
	}
	return timeRecallFigure(cfg, "Fig 5", specs, cfg.defaultMethods, nil)
}

// kSweep is the paper's k axis for Figures 6 and 8.
var kSweep = []int{1, 10, 20, 40}

// atRecallFigure renders one query-time-vs-k figure at the target recall.
func atRecallFigure(cfg Config, title string, specs []dataset.Spec,
	methods func(d int) []Method, target float64, base func(m Method) p2h.SearchOptions) (string, error) {
	var b strings.Builder
	for _, spec := range specs {
		w := cfg.workload(spec)
		var series []Series
		for _, m := range methods(spec.RawDim) {
			ix := m.Build(w.Raw)
			opts := p2h.SearchOptions{}
			if base != nil {
				opts = base(m)
			}
			s := Series{Name: m.Name}
			for _, k := range kSweep {
				ev := FindBudget(ix, w, k, target, opts)
				s.Points = append(s.Points, Point{X: float64(k), Y: ev.QueryMS})
			}
			series = append(series, s)
			cfg.logf("%s: %s / %s done", title, spec.Name, m.Name)
		}
		b.WriteString(FormatSeries(
			fmt.Sprintf("%s — %s (d=%d, n=%d), at about %.0f%% recall", title, spec.Name, spec.RawDim, w.N(), target*100),
			"k", "ms/query", series))
	}
	return b.String(), nil
}

// Fig6 reproduces Figure 6: query time vs k at about 80% recall.
func Fig6(cfg Config) (string, error) {
	cfg = cfg.normalized()
	specs, err := cfg.resolveSets(dataset.SmallSets())
	if err != nil {
		return "", err
	}
	return atRecallFigure(cfg, "Fig 6", specs, cfg.defaultMethods, 0.8, nil)
}

// Fig7 reproduces Figure 7: center vs lower-bound branch preference for
// Ball-Tree and BC-Tree.
func Fig7(cfg Config) (string, error) {
	cfg = cfg.normalized()
	specs, err := cfg.resolveSets(dataset.SmallSets())
	if err != nil {
		return "", err
	}
	bcC, bcL, ballC, ballL := BCTree(cfg.Params), BCTree(cfg.Params), BallTree(cfg.Params), BallTree(cfg.Params)
	bcC.Name = "BC-Tree (center)"
	bcL.Name = "BC-Tree (lower bound)"
	ballC.Name = "Ball-Tree (center)"
	ballL.Name = "Ball-Tree (lower bound)"
	methods := []Method{bcC, bcL, ballC, ballL}
	prefs := map[string]p2h.Preference{
		bcC.Name: p2h.PrefCenter, bcL.Name: p2h.PrefLowerBound,
		ballC.Name: p2h.PrefCenter, ballL.Name: p2h.PrefLowerBound,
	}
	return timeRecallFigure(cfg, "Fig 7", specs, func(int) []Method { return methods }, func(m Method) p2h.SearchOptions {
		return p2h.SearchOptions{Preference: prefs[m.Name]}
	})
}

// Fig8 reproduces Figure 8: the point-level bound ablation of BC-Tree at
// about 80% recall.
func Fig8(cfg Config) (string, error) {
	cfg = cfg.normalized()
	specs, err := cfg.resolveSets(dataset.SmallSets())
	if err != nil {
		return "", err
	}
	full, woC, woB, woBC := BCTree(cfg.Params), BCTree(cfg.Params), BCTree(cfg.Params), BCTree(cfg.Params)
	full.Name = "BC-Tree"
	woC.Name = "BC-Tree-wo-C"
	woB.Name = "BC-Tree-wo-B"
	woBC.Name = "BC-Tree-wo-BC"
	methods := []Method{full, woC, woB, woBC}
	variants := map[string]p2h.SearchOptions{
		full.Name: {},
		woC.Name:  {DisablePointCone: true},
		woB.Name:  {DisablePointBall: true},
		woBC.Name: {DisablePointBall: true, DisablePointCone: true},
	}
	return atRecallFigure(cfg, "Fig 8", specs, func(int) []Method { return methods }, 0.8, func(m Method) p2h.SearchOptions {
		return variants[m.Name]
	})
}

// Fig9 reproduces Figure 9: the Figure 5 comparison on the two large-scale
// surrogates.
func Fig9(cfg Config) (string, error) {
	cfg = cfg.normalized()
	specs, err := cfg.resolveSets(dataset.LargeSets())
	if err != nil {
		return "", err
	}
	return timeRecallFigure(cfg, "Fig 9", specs, cfg.defaultMethods, nil)
}

// fig10Sets are the paper's two profiled data sets.
var fig10Sets = []string{"Cifar-10", "Sun"}

// Fig10 reproduces Figure 10: the per-phase time profile at about 90% recall.
func Fig10(cfg Config) (string, error) {
	cfg = cfg.normalized()
	defaults := make([]dataset.Spec, 0, len(fig10Sets))
	for _, name := range fig10Sets {
		defaults = append(defaults, dataset.ByName(name))
	}
	specs, err := cfg.resolveSets(defaults)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, spec := range specs {
		w := cfg.workload(spec)
		t := &Table{
			Title: fmt.Sprintf("Fig 10 — %s (d=%d, n=%d): time profile at about 90%% recall (ms/query)",
				spec.Name, spec.RawDim, w.N()),
			Header: []string{"Method", "Recall%", "Verification", "Table Lookup", "Lower Bounds", "Others", "Total"},
		}
		for _, m := range cfg.defaultMethods(spec.RawDim) {
			ix := m.Build(w.Raw)
			budget := FindBudget(ix, w, cfg.K, 0.9, p2h.SearchOptions{}).Budget
			ev := Run(ix, w, p2h.SearchOptions{K: cfg.K, Budget: budget}, true)
			nq := float64(w.Queries.N)
			perQuery := func(p core.Phase) float64 {
				return ev.Profile.Get(p).Seconds() * 1000 / nq
			}
			total := ev.QueryMS
			others := total - perQuery(core.PhaseVerify) - perQuery(core.PhaseLookup) - perQuery(core.PhaseBound)
			if others < 0 {
				others = 0
			}
			t.AddRow(m.Name,
				fmt.Sprintf("%.1f", ev.Recall*100),
				fmt.Sprintf("%.4f", perQuery(core.PhaseVerify)),
				fmt.Sprintf("%.4f", perQuery(core.PhaseLookup)),
				fmt.Sprintf("%.4f", perQuery(core.PhaseBound)),
				fmt.Sprintf("%.4f", others),
				fmt.Sprintf("%.4f", total),
			)
			cfg.logf("fig10: %s / %s profiled", spec.Name, m.Name)
		}
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return b.String(), nil
}

// leafSweep is the paper's Figure 11 leaf-size axis.
var leafSweep = []int{100, 200, 500, 1000, 2000, 5000, 10000}

// Fig11 reproduces Figure 11: the impact of the leaf size N0 on BC-Tree.
func Fig11(cfg Config) (string, error) {
	cfg = cfg.normalized()
	specs, err := cfg.resolveSets(dataset.SmallSets())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, spec := range specs {
		w := cfg.workload(spec)
		var series []Series
		for _, n0 := range leafSweep {
			p := cfg.Params
			p.Spec.LeafSize = n0
			ix := BCTree(p).Build(w.Raw)
			evals := Sweep(ix, w, cfg.K, nil, p2h.SearchOptions{})
			s := Series{Name: fmt.Sprintf("N0=%d", n0)}
			for _, ev := range evals {
				s.Points = append(s.Points, Point{X: ev.Recall * 100, Y: ev.QueryMS})
			}
			series = append(series, s)
			cfg.logf("fig11: %s / N0=%d swept", spec.Name, n0)
		}
		b.WriteString(FormatSeries(
			fmt.Sprintf("Fig 11 — %s (d=%d, n=%d), k=%d", spec.Name, spec.RawDim, w.N(), cfg.K),
			"recall%", "ms/query", series))
	}
	return b.String(), nil
}

// Ablation measures the design choices DESIGN.md calls out beyond the
// paper's own figures: the collaborative inner product strategy (Theorem 5)
// and the KD-Tree box bound the paper argues against (Section III-A). A
// BC-Tree cannot be searched without Lemma 2 — it does not store the centres
// that would take — so "center IPs off" is counted, not run: each
// collaborative product replaces exactly one O(d) product, which makes the
// count without it the centre products made plus the collaborative ones. The
// Ball-Tree column is that search, run.
func Ablation(cfg Config) (string, error) {
	cfg = cfg.normalized()
	specs, err := cfg.resolveSets(dataset.SmallSets())
	if err != nil {
		return "", err
	}
	t := &Table{
		Title: "Ablation: collaborative inner products (Theorem 5) and the KD-Tree box bound, at about 80% recall",
		Header: []string{"Data Set", "BC ms", "center IPs on", "center IPs off",
			"KD-Tree ms", "Ball-Tree ms"},
	}
	for _, spec := range specs {
		w := cfg.workload(spec)
		evOn := FindBudget(BCTree(cfg.Params).Build(w.Raw), w, cfg.K, 0.8, p2h.SearchOptions{})
		centerIPs := evOn.Stats.IPCount - evOn.Stats.Candidates
		evKD := FindBudget(KDTree(cfg.Params).Build(w.Raw), w, cfg.K, 0.8, p2h.SearchOptions{})
		evBall := FindBudget(BallTree(cfg.Params).Build(w.Raw), w, cfg.K, 0.8, p2h.SearchOptions{})
		t.AddRow(spec.Name,
			fmt.Sprintf("%.4f", evOn.QueryMS),
			fmt.Sprintf("%d", centerIPs),
			fmt.Sprintf("%d", centerIPs+evOn.Stats.CollabIPs),
			fmt.Sprintf("%.4f", evKD.QueryMS),
			fmt.Sprintf("%.4f", evBall.QueryMS),
		)
		cfg.logf("ablation: %s done", spec.Name)
	}
	return t.String(), nil
}
