package harness

// One benchmark per table and figure of the paper's evaluation section.
// Each benchmark runs the corresponding experiment at a reduced scale so
// `go test -bench=.` completes on a laptop; cmd/p2hbench runs the full-scale
// versions (EXPERIMENTS.md records a full run). The rows/series each
// benchmark prints match the paper's layout; the per-op time measures the
// whole experiment.

import (
	"testing"

	p2h "p2h"
)

// benchCfg is the reduced-scale configuration for the experiment benchmarks:
// about a tenth of the default surrogate sizes, 10 queries per set, and two
// representative data sets (one low-dimensional clustered, one
// high-dimensional) unless the experiment pins its own.
func benchCfg(sets ...string) Config {
	return Config{
		Scale:  0.1,
		NQ:     10,
		K:      10,
		Seed:   1,
		Sets:   sets,
		Params: Params{Spec: p2h.Spec{LeafSize: 100, M: 16, L: 2}},
	}
}

// runExperiment executes one experiment b.N times and reports the output
// once (verbose mode only).
func runExperiment(b *testing.B, name string, cfg Config) {
	b.Helper()
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = RunExperiment(name, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if testing.Verbose() {
		b.Log("\n" + out)
	}
}

// BenchmarkTable2DatasetStats regenerates Table II (data set statistics).
func BenchmarkTable2DatasetStats(b *testing.B) {
	runExperiment(b, "table2", benchCfg())
}

// BenchmarkTable3Indexing regenerates Table III (indexing time and size for
// BC-Tree, Ball-Tree, NH and FH at lambda = d and 8d).
func BenchmarkTable3Indexing(b *testing.B) {
	runExperiment(b, "table3", benchCfg("Sift", "Cifar-10"))
}

// BenchmarkFig5TimeRecall regenerates Figure 5 (query time vs recall, k=10).
func BenchmarkFig5TimeRecall(b *testing.B) {
	runExperiment(b, "fig5", benchCfg("Sift", "Cifar-10"))
}

// BenchmarkFig6TimeVsK regenerates Figure 6 (query time vs k at ~80% recall).
func BenchmarkFig6TimeVsK(b *testing.B) {
	runExperiment(b, "fig6", benchCfg("Sift"))
}

// BenchmarkFig7BranchPreference regenerates Figure 7 (center vs lower-bound
// branch preference for Ball-Tree and BC-Tree).
func BenchmarkFig7BranchPreference(b *testing.B) {
	runExperiment(b, "fig7", benchCfg("Sift"))
}

// BenchmarkFig8BoundAblation regenerates Figure 8 (BC-Tree without the
// point-level cone/ball/both bounds).
func BenchmarkFig8BoundAblation(b *testing.B) {
	runExperiment(b, "fig8", benchCfg("Sift"))
}

// BenchmarkFig9LargeScale regenerates Figure 9 (the large-scale surrogates).
func BenchmarkFig9LargeScale(b *testing.B) {
	cfg := benchCfg() // Deep100M/Sift100M surrogates default to 200k; 0.1 -> 20k
	runExperiment(b, "fig9", cfg)
}

// BenchmarkFig10TimeProfile regenerates Figure 10 (per-phase time profile at
// ~90% recall on Cifar-10 and Sun).
func BenchmarkFig10TimeProfile(b *testing.B) {
	runExperiment(b, "fig10", benchCfg())
}

// BenchmarkFig11LeafSize regenerates Figure 11 (BC-Tree leaf size sweep).
func BenchmarkFig11LeafSize(b *testing.B) {
	runExperiment(b, "fig11", benchCfg("Sift"))
}

// BenchmarkAblationExtras regenerates the repository's extra ablations:
// collaborative inner products (Theorem 5) and the KD-Tree box bound.
func BenchmarkAblationExtras(b *testing.B) {
	runExperiment(b, "ablation", benchCfg("Sift"))
}
