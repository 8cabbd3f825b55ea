// Command p2hbench regenerates the paper's evaluation: Table II, Table III,
// and Figures 5-11, plus the repository's extra ablations, on the synthetic
// surrogate data sets.
//
// Usage:
//
//	p2hbench -exp fig5 -sets Music,Sift -scale 0.5 -v
//	p2hbench -exp all -out results.txt
//
// Every experiment accepts -scale to shrink or grow the default point
// counts, so a laptop run and an overnight run use the same code path.
//
// Besides the named experiments, -index / -spec / -load select one index
// through the p2h registry and run a budget-sweep benchmark (build or load
// time, then recall and latency per candidate fraction) — the quick way to
// evaluate any registered kind, including a saved index container:
//
//	p2hbench -index sharded -spec '{"shards":8}' -sets Sift -n 50000
//	p2hbench -load index.p2h -sets Sift -n 50000
//
// Those are its only two modes. Serving, durability, overload, cluster and
// filtered-search measurements are workloads and per-layer metrics of the
// repository's one harness, `go run ./benchmark` (benchmark/README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	p2h "p2h"

	"p2h/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("p2hbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment to run: "+strings.Join(harness.Experiments(), ", ")+", or 'all' (comma-separated lists accepted)")
		sets     = fs.String("sets", "", "comma-separated data set names (default: the experiment's paper defaults)")
		scale    = fs.Float64("scale", 1, "multiplier on the default per-set point counts")
		nq       = fs.Int("nq", 50, "hyperplane queries per data set")
		k        = fs.Int("k", 10, "top-k for the time-recall experiments")
		seed     = fs.Int64("seed", 1, "seed for data generation and index construction")
		leafSize = fs.Int("leafsize", 100, "tree leaf size N0")
		hashM    = fs.Int("hashm", 32, "NH/FH projection count m")
		hashL    = fs.Int("hashl", 2, "NH/FH collision/separation threshold l")
		lambdaF  = fs.Int("lambda", 2, "NH/FH sampled dimension as a multiple of d (Table III uses 1 and 8 regardless)")
		maxL     = fs.Int("maxlambda", 16384, "cap on the sampled dimension for very high-d sets")
		verbose  = fs.Bool("v", false, "log per-step progress to stderr")
		indexK   = fs.String("index", "", "registry kind for the single-index benchmark ("+strings.Join(p2h.Kinds(), ", ")+")")
		specJSON = fs.String("spec", "", "p2h.Spec as JSON for the single-index benchmark (-index overrides its kind)")
		quantize = fs.Bool("quantize", false, "enable the 8-bit quantized leaf mirror on the single-index benchmark (shorthand for \"quantize\":true in -spec)")
		loadPath = fs.String("load", "", "benchmark a saved index container instead of building one")
		n        = fs.Int("n", 20000, "points for the single-index benchmark (before dedup)")
		outPath  = fs.String("out", "", "also write results to this file")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile taken after the experiment run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := harness.Config{
		Scale: *scale,
		NQ:    *nq,
		K:     *k,
		Seed:  *seed,
		Params: harness.Params{
			LeafSize:     *leafSize,
			Seed:         *seed,
			LambdaFactor: *lambdaF,
			MaxLambda:    *maxL,
			HashM:        *hashM,
			HashL:        *hashL,
		},
	}
	if *sets != "" {
		cfg.Sets = splitList(*sets)
	}
	if *verbose {
		cfg.Progress = stderr
	}

	custom := *indexK != "" || *specJSON != "" || *loadPath != "" || *quantize

	names := splitList(*exp)
	if len(names) == 1 && names[0] == "all" {
		names = harness.Experiments()
	}

	out := io.Writer(stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(stderr, "p2hbench: %v\n", err)
			return 1
		}
		defer f.Close()
		out = io.MultiWriter(stdout, f)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(stderr, "p2hbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "p2hbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	if custom {
		set := "Sift"
		if len(cfg.Sets) > 0 {
			set = cfg.Sets[0]
		}
		if err := runCustom(out, customConfig{
			set: set, n: *n, nq: *nq, k: *k, seed: *seed,
			kind: *indexK, specJSON: *specJSON, loadPath: *loadPath,
			quantize: *quantize,
		}); err != nil {
			fmt.Fprintf(stderr, "p2hbench: %v\n", err)
			return 1
		}
	} else {
		for _, name := range names {
			result, err := harness.RunExperiment(name, cfg)
			if err != nil {
				fmt.Fprintf(stderr, "p2hbench: %v\n", err)
				return 1
			}
			fmt.Fprintf(out, "=== %s ===\n%s\n", name, result)
		}
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintf(stderr, "p2hbench: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile reflects live memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "p2hbench: %v\n", err)
			return 1
		}
	}
	return 0
}

// customConfig parameterizes the single-index benchmark.
type customConfig struct {
	set      string
	n, nq, k int
	seed     int64
	kind     string
	specJSON string
	loadPath string
	quantize bool
}

// runCustom benchmarks one index selected through the registry (built from
// -index / -spec or loaded from -load) with the same protocol as the named
// experiments: generated surrogate data, random hyperplane queries, exact
// ground truth, and a candidate-budget sweep reporting recall and latency.
func runCustom(w io.Writer, cfg customConfig) error {
	data := p2h.Dedup(p2h.GenerateDataset(cfg.set, cfg.n, cfg.seed))
	fmt.Fprintf(w, "data: %s, %d points, %d dimensions\n", cfg.set, data.N, data.D)

	start := time.Now()
	var ix p2h.Index
	if cfg.loadPath != "" {
		var err error
		ix, err = p2h.Open(cfg.loadPath)
		if err != nil {
			return err
		}
		if ix.Dim() != data.D {
			return fmt.Errorf("loaded index has dimension %d, data has %d", ix.Dim(), data.D)
		}
		fmt.Fprintf(w, "index: %s loaded in %v (%d index bytes)\n",
			p2h.KindOf(ix), time.Since(start).Round(time.Millisecond), ix.IndexBytes())
	} else {
		var spec p2h.Spec
		if cfg.specJSON != "" {
			if err := json.Unmarshal([]byte(cfg.specJSON), &spec); err != nil {
				return fmt.Errorf("bad -spec JSON: %w", err)
			}
		}
		if cfg.kind != "" {
			spec.Kind = cfg.kind
		}
		if spec.Kind == "" {
			spec.Kind = p2h.KindBCTree
		}
		if spec.Seed == 0 {
			spec.Seed = cfg.seed
		}
		if cfg.quantize {
			spec.Quantize = true
		}
		var err error
		ix, err = p2h.New(data, spec)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "index: %s built in %v (%d index bytes)\n",
			p2h.KindOf(ix), time.Since(start).Round(time.Millisecond), ix.IndexBytes())
	}

	queries := p2h.GenerateQueries(data, cfg.nq, cfg.seed+1)
	gt := p2h.GroundTruth(data, queries, cfg.k)

	// Nodes opened sit beside recall because that is the trade a budgeted
	// tree search makes: its best-first frontier opens more nodes per verified
	// candidate (each costing a centre inner product, counted in ips/query)
	// to put the candidates where the neighbours are.
	fmt.Fprintf(w, "%10s  %8s  %12s  %14s  %12s  %13s  %12s\n",
		"budget", "recall", "ms/query", "cands/query", "nodes/query", "leaves/query", "ips/query")
	for _, frac := range []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0} {
		budget := int(frac * float64(ix.N()))
		if budget < 1 {
			budget = 1
		}
		var recall float64
		var total p2h.Stats
		start := time.Now()
		for i := 0; i < queries.N; i++ {
			res, st := ix.Search(queries.Row(i), p2h.SearchOptions{K: cfg.k, Budget: budget})
			recall += p2h.Recall(res, gt[i])
			total.Add(st)
		}
		elapsed := time.Since(start)
		nq := float64(queries.N)
		fmt.Fprintf(w, "%9.1f%%  %7.1f%%  %12.4f  %14.1f  %12.1f  %13.1f  %12.1f\n",
			frac*100,
			100*recall/nq,
			elapsed.Seconds()*1000/nq,
			float64(total.Candidates)/nq,
			float64(total.NodesVisited)/nq,
			float64(total.LeavesVisited)/nq,
			float64(total.IPCount)/nq)
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
