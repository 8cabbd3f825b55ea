// Command p2htool is the operational CLI of the library: generate surrogate
// data sets and hyperplane queries, build and persist indexes of any
// registered kind, inspect them, and answer queries from files.
//
// Subcommands:
//
//	p2htool gen     -set Sift -n 10000 -seed 1 -out data.fvecs
//	p2htool queries -data data.fvecs -nq 100 -seed 2 -out queries.fvecs
//	p2htool build   -index bctree -spec '{"leaf_size":100}' -data data.fvecs -out index.p2h
//	p2htool info    -load index.p2h
//	p2htool inspect index.p2h
//	p2htool search  -load index.p2h -queries queries.fvecs -k 10
//	p2htool eval    -load index.p2h -data data.fvecs -queries queries.fvecs -k 10
//	p2htool eval    -index nh -spec '{"m":32}' -data data.fvecs -queries queries.fvecs
//	p2htool cluster split  -data data.fvecs -members 3 -replicas 1 -out cluster/
//	p2htool cluster status -config cluster/cluster.json
//
// Index selection goes through the p2h registry: -index names any registered
// kind (p2h.Kinds) and -spec carries the full declarative p2h.Spec as JSON.
// Saved files are self-describing containers, so info/search/eval need only
// -load — no kind flag. eval is the one budget sweep of a single index: over
// a container, or over an index it builds from -index/-spec, build-only kinds
// included.
//
// Data files use the fvecs layout (per vector: int32 dimension then float32
// components). Query files hold one (normal; offset) row per hyperplane.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	p2h "p2h"

	"p2h/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage: p2htool <gen|queries|build|info|inspect|search|eval|cluster> [flags]
Run 'p2htool <subcommand> -h' for the flags of each subcommand.`

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	var err error
	switch args[0] {
	case "gen":
		err = runGen(args[1:], stdout, stderr)
	case "queries":
		err = runQueries(args[1:], stdout, stderr)
	case "build":
		err = runBuild(args[1:], stdout, stderr)
	case "info":
		err = runInfo(args[1:], stdout, stderr)
	case "inspect":
		err = runInspect(args[1:], stdout, stderr)
	case "search":
		err = runSearch(args[1:], stdout, stderr)
	case "eval":
		err = runEval(args[1:], stdout, stderr)
	case "cluster":
		err = runCluster(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprintln(stdout, usage)
		return 0
	default:
		fmt.Fprintf(stderr, "p2htool: unknown subcommand %q\n%s\n", args[0], usage)
		return 2
	}
	if err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		fmt.Fprintf(stderr, "p2htool: %v\n", err)
		return 1
	}
	return 0
}

// makeSpec combines the -index and -spec flags into one p2h.Spec: the JSON
// document is the base and an explicit -index overrides its kind.
func makeSpec(kind, specJSON string) (p2h.Spec, error) {
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
	return spec, nil
}

func runGen(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	set := fs.String("set", "Sift", "surrogate data set name ("+strings.Join(p2h.Datasets(), ", ")+")")
	n := fs.Int("n", 0, "number of points (0: the set's default)")
	seed := fs.Int64("seed", 1, "generation seed")
	out := fs.String("out", "", "output fvecs path (required)")
	dedup := fs.Bool("dedup", true, "remove duplicate points (the paper's preprocessing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("gen: -out is required")
	}
	known := false
	for _, name := range p2h.Datasets() {
		if name == *set {
			known = true
		}
	}
	if !known {
		return fmt.Errorf("gen: unknown set %q (known: %s)", *set, strings.Join(p2h.Datasets(), ", "))
	}
	data := p2h.GenerateDataset(*set, *n, *seed)
	if *dedup {
		data = p2h.Dedup(data)
	}
	if err := p2h.SaveFvecs(*out, data); err != nil {
		return fmt.Errorf("gen: %w", err)
	}
	fmt.Fprintf(stdout, "wrote %d points of dimension %d to %s\n", data.N, data.D, *out)
	return nil
}

func runQueries(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("queries", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dataPath := fs.String("data", "", "data fvecs path (required)")
	nq := fs.Int("nq", 100, "number of hyperplane queries")
	seed := fs.Int64("seed", 2, "generation seed")
	out := fs.String("out", "", "output fvecs path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" || *out == "" {
		return fmt.Errorf("queries: -data and -out are required")
	}
	data, err := p2h.LoadFvecs(*dataPath)
	if err != nil {
		return fmt.Errorf("queries: %w", err)
	}
	queries := p2h.GenerateQueries(data, *nq, *seed)
	if err := p2h.SaveFvecs(*out, queries); err != nil {
		return fmt.Errorf("queries: %w", err)
	}
	fmt.Fprintf(stdout, "wrote %d hyperplane queries of dimension %d to %s\n", queries.N, queries.D, *out)
	return nil
}

func runBuild(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("build", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kind := fs.String("index", "", "index kind ("+strings.Join(p2h.Kinds(), ", ")+"; default from -spec, else bctree)")
	specJSON := fs.String("spec", "", "p2h.Spec as JSON, e.g. '{\"kind\":\"sharded\",\"shards\":8}'")
	dataPath := fs.String("data", "", "data fvecs path (required)")
	attrsPath := fs.String("attrs", "", "optional JSON array of per-point attribute payloads (one per data row, in row order)")
	leafSize := fs.Int("leafsize", 0, "override the spec's tree leaf size N0")
	seed := fs.Int64("seed", 0, "override the spec's construction seed")
	out := fs.String("out", "", "output index path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" || *out == "" {
		return fmt.Errorf("build: -data and -out are required")
	}
	spec, err := makeSpec(*kind, *specJSON)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	if *leafSize > 0 {
		spec.LeafSize = *leafSize
	}
	if *seed != 0 {
		spec.Seed = *seed
	}
	data, err := p2h.LoadFvecs(*dataPath)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	var points []p2h.PointAttrs
	if *attrsPath != "" {
		raw, err := os.ReadFile(*attrsPath)
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		if err := json.Unmarshal(raw, &points); err != nil {
			return fmt.Errorf("build: decoding %s: %w", *attrsPath, err)
		}
		if len(points) != data.N {
			return fmt.Errorf("build: %s holds %d payloads, data holds %d rows",
				*attrsPath, len(points), data.N)
		}
	}
	start := time.Now()
	ix, err := p2h.New(data, spec)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	if points != nil {
		if err := p2h.AttachAttributes(ix, points); err != nil {
			return fmt.Errorf("build: %w", err)
		}
	}
	if err := p2h.SaveFile(*out, ix); err != nil {
		return fmt.Errorf("build: %w", err)
	}
	fmt.Fprintf(stdout, "built %s over %d points (d=%d) in %v, %d index bytes -> %s\n",
		p2h.KindOf(ix), ix.N(), ix.Dim(), time.Since(start).Round(time.Millisecond), ix.IndexBytes(), *out)
	return nil
}

func runInfo(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	fs.SetOutput(stderr)
	path := fs.String("load", "", "index path (required; the container records its own kind)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("info: -load is required")
	}
	ix, err := p2h.Open(*path)
	if err != nil {
		return fmt.Errorf("info: %w", err)
	}
	fmt.Fprintf(stdout, "type=%s points=%d dim=%d index_bytes=%d\n", p2h.KindOf(ix), ix.N(), ix.Dim(), ix.IndexBytes())
	return nil
}

// runInspect prints a container's header description — kind, recorded spec,
// raw dimensionality and point count — without loading the index payload,
// so it stays fast on multi-gigabyte files. Unlike info it never builds the
// index (and reports the header of containers whose kind this build cannot
// even load).
func runInspect(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	path := fs.String("load", "", "index path (or pass it as the positional argument)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" && fs.NArg() == 1 {
		*path = fs.Arg(0)
	}
	if *path == "" || fs.NArg() > 1 {
		return fmt.Errorf("inspect: usage: p2htool inspect <file.p2h> (or -load <file.p2h>)")
	}
	info, err := p2h.InspectFile(*path)
	if err != nil {
		return fmt.Errorf("inspect: %w", err)
	}
	specJSON, err := json.Marshal(info.Spec)
	if err != nil {
		return fmt.Errorf("inspect: %w", err)
	}
	dim, points := "unknown", "unknown"
	if info.Dim >= 0 {
		dim = strconv.Itoa(info.Dim)
	}
	if info.N >= 0 {
		points = strconv.Itoa(info.N)
	}
	fmt.Fprintf(stdout, "kind=%s dim=%s points=%s\nspec=%s\n", info.Kind, dim, points, specJSON)
	if info.HasAttrs {
		fmt.Fprintf(stdout, "attrs=present tags=[%s] fields=[%s]\n",
			strings.Join(info.AttrTags, ","), strings.Join(info.AttrFields, ","))
	}
	if info.WALPath != "" {
		fmt.Fprintf(stdout, "wal=%s pending=%d\n", info.WALPath, info.WALRecords)
	}
	return nil
}

// runEval sweeps one index over candidate budgets against the exact answers
// for -queries over -data: the index is either -load's container or one
// built in process from -index/-spec over -data, which also reaches the
// build-only kinds. The sweep is the paper harness's (harness.Sweep).
func runEval(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	fs.SetOutput(stderr)
	path := fs.String("load", "", "index path (or build one with -index/-spec)")
	kind := fs.String("index", "", "build this kind over -data instead of -load ("+strings.Join(p2h.Kinds(), ", ")+")")
	specJSON := fs.String("spec", "", "p2h.Spec as JSON for the index built over -data (-index overrides its kind)")
	dataPath := fs.String("data", "", "data fvecs path for ground truth (required)")
	queriesPath := fs.String("queries", "", "queries fvecs path (required)")
	k := fs.Int("k", 10, "results per query")
	budgets := fs.String("budgets", "0.01,0.05,0.2,1.0", "comma-separated candidate fractions to evaluate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	build := *kind != "" || *specJSON != ""
	if build == (*path != "") {
		return fmt.Errorf("eval: give exactly one of -load or -index/-spec")
	}
	if *dataPath == "" || *queriesPath == "" {
		return fmt.Errorf("eval: -data and -queries are required")
	}
	var fractions []float64
	for _, tok := range strings.Split(*budgets, ",") {
		frac, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil || frac <= 0 || frac > 1 {
			return fmt.Errorf("eval: bad budget fraction %q", tok)
		}
		fractions = append(fractions, frac)
	}
	data, err := p2h.LoadFvecs(*dataPath)
	if err != nil {
		return fmt.Errorf("eval: %w", err)
	}
	queries, err := p2h.LoadFvecs(*queriesPath)
	if err != nil {
		return fmt.Errorf("eval: %w", err)
	}

	spec, err := makeSpec(*kind, *specJSON)
	if err != nil {
		return fmt.Errorf("eval: %w", err)
	}
	start := time.Now()
	var ix p2h.Index
	verb := "loaded"
	if build {
		verb = "built"
		ix, err = p2h.New(data, spec)
	} else {
		ix, err = p2h.Open(*path)
	}
	if err != nil {
		return fmt.Errorf("eval: %w", err)
	}
	if data.D != ix.Dim() || queries.D != ix.Dim()+1 {
		return fmt.Errorf("eval: dimensions do not line up: data %d, queries %d, index %d",
			data.D, queries.D, ix.Dim())
	}
	fmt.Fprintf(stdout, "index: %s %s in %v (%d index bytes)\n",
		p2h.KindOf(ix), verb, time.Since(start).Round(time.Millisecond), ix.IndexBytes())

	// Nodes opened sit beside recall because that is the trade a budgeted
	// tree search makes: its best-first frontier opens more nodes per verified
	// candidate (each costing a centre inner product, counted in ips/query)
	// to put the candidates where the neighbours are.
	fmt.Fprintf(stdout, "%10s  %8s  %12s  %14s  %12s  %13s  %12s\n",
		"budget", "recall", "ms/query", "cands/query", "nodes/query", "leaves/query", "ips/query")
	w := &harness.Workload{Raw: data, Queries: queries}
	nq := float64(queries.N)
	for i, ev := range harness.Sweep(ix, w, *k, fractions, p2h.SearchOptions{}) {
		fmt.Fprintf(stdout, "%9.1f%%  %8.4f  %12.4f  %14.1f  %12.1f  %13.1f  %12.1f\n",
			fractions[i]*100,
			ev.Recall,
			ev.QueryMS,
			float64(ev.Stats.Candidates)/nq,
			float64(ev.Stats.NodesVisited)/nq,
			float64(ev.Stats.LeavesVisited)/nq,
			float64(ev.Stats.IPCount)/nq)
	}
	return nil
}

func runSearch(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("search", flag.ContinueOnError)
	fs.SetOutput(stderr)
	path := fs.String("load", "", "index path (required)")
	queriesPath := fs.String("queries", "", "queries fvecs path (required)")
	k := fs.Int("k", 10, "results per query")
	budget := fs.Int("budget", 0, "candidate verification budget (0: exact)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" || *queriesPath == "" {
		return fmt.Errorf("search: -load and -queries are required")
	}
	ix, err := p2h.Open(*path)
	if err != nil {
		return fmt.Errorf("search: %w", err)
	}
	queries, err := p2h.LoadFvecs(*queriesPath)
	if err != nil {
		return fmt.Errorf("search: %w", err)
	}
	if queries.D != ix.Dim()+1 {
		return fmt.Errorf("search: queries have dimension %d, index needs %d", queries.D, ix.Dim()+1)
	}
	start := time.Now()
	var candidates int64
	for i := 0; i < queries.N; i++ {
		res, st := ix.Search(queries.Row(i), p2h.SearchOptions{K: *k, Budget: *budget})
		candidates += st.Candidates
		fmt.Fprintf(stdout, "query %d:", i)
		for _, r := range res {
			fmt.Fprintf(stdout, " (%d, %.6f)", r.ID, r.Dist)
		}
		fmt.Fprintln(stdout)
	}
	elapsed := time.Since(start)
	fmt.Fprintf(stdout, "%d queries in %v (%.3f ms/query, %.0f candidates/query)\n",
		queries.N, elapsed.Round(time.Microsecond),
		elapsed.Seconds()*1000/float64(queries.N),
		float64(candidates)/float64(queries.N))
	return nil
}
