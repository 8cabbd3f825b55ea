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
// Running the named experiments is its only mode. A budget sweep of one
// index over your own data is `p2htool eval`; serving, durability, overload,
// cluster and filtered-search measurements are workloads and per-layer
// metrics of the repository's one harness, `go run ./benchmark`
// (benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

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
			Spec:         p2h.Spec{LeafSize: *leafSize, Seed: *seed, M: *hashM, L: *hashL},
			LambdaFactor: *lambdaF,
			MaxLambda:    *maxL,
		},
	}
	if *sets != "" {
		cfg.Sets = splitList(*sets)
	}
	if *verbose {
		cfg.Progress = stderr
	}

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

	for _, name := range names {
		result, err := harness.RunExperiment(name, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "p2hbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "=== %s ===\n%s\n", name, result)
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

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
