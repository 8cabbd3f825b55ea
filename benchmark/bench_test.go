package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// smoke runs the command as the driver does, at a size that takes
// milliseconds, and returns the result printed on the last line.
func smoke(t *testing.T, workload, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", trace, "-n", "2000"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%s: exit %d\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func checkEmitted(t *testing.T, workload string, got map[string]metric, want []metricDef, nonZero bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json declares %d", workload, len(got), len(want))
	}
	for _, def := range want {
		m, ok := got[def.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", workload, def.Name)
		case !nameRE.MatchString(def.Name):
			t.Errorf("%s: bad metric name %q", workload, def.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", workload, def.Name, m.Value)
		case m.Unit == "" || m.Unit != def.Unit:
			t.Errorf("%s: %s has unit %q, declared %q", workload, def.Name, m.Unit, def.Unit)
		case nonZero && m.Value == 0:
			t.Errorf("%s: end-to-end metric %s is zero", workload, def.Name)
		}
	}
}

// TestSmoke keeps the benchmark from rotting: every workload named in
// BENCHMARK.json runs, checks its answers, and emits every declared metric,
// end to end with tracing off and per layer with it on.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames()) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(spec.Workloads), len(workloadNames()))
	}
	for _, w := range spec.Workloads {
		if newWorkload(w.Name) == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the harness does not have", w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			checkEmitted(t, w.Name, smoke(t, w.Name, "0").Metrics, spec.EndToEnd, true)
		})
	}
	// The traced run's ladder and probes are the same whatever the workload;
	// one of them covers the per-layer names.
	t.Run("traced", func(t *testing.T) {
		checkEmitted(t, "routed", smoke(t, "routed", "1").Metrics, spec.PerLayer, false)
	})
}

// TestWrongGroundTruthFails is the correctness gate's own test: a wrong
// expected answer must fail the calls that meet it.
func TestWrongGroundTruthFails(t *testing.T) {
	fx, err := newFixture(config{workload: "tree-seq", seed: 7, seconds: 0.2, n: 2000, procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	for qi := range fx.gt {
		fx.gt[qi][0].ID++
	}
	w := newWorkload("tree-seq")
	if err := w.setup(fx); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if win := w.run(100*time.Millisecond, nil); win.failed == 0 {
		t.Fatalf("a corrupted ground truth went unnoticed over %d calls", win.attempted)
	}
}

// TestQuietTimings: twenty 250 ms slices, two of them undisturbed (100 reads
// of 2.5 ms each) and the rest slowed to half speed; the statistic must report
// the undisturbed rate and latency, not the window's mean.
func TestQuietTimings(t *testing.T) {
	win := window{elapsed: 20 * sliceLen}
	for s := 0; s < 20; s++ {
		each := 5 * time.Millisecond
		if s == 3 || s == 11 {
			each = 2500 * time.Microsecond
		}
		base := time.Duration(s) * sliceLen
		for at := time.Duration(0); at < sliceLen; at += each {
			win.calls = append(win.calls, call{start: base + at, end: base + at + each, queries: 1})
		}
	}
	qps, tail, n := quietTimings(&win, 0.5)
	if qps != 400 || n != 2*100+3*50 {
		t.Errorf("qps = %v with %d tail samples, want 400 with 350", qps, n)
	}
	if tail != 2.5 {
		t.Errorf("tail = %v ms, want the undisturbed 2.5", tail)
	}
	// A call that straddles slices gives each its share of the queries.
	one := window{elapsed: 2 * sliceLen, calls: []call{{start: sliceLen / 2, end: 3 * sliceLen / 2, queries: 64}}}
	if qps, _, _ := quietTimings(&one, 0.5); qps != 32/sliceLen.Seconds() {
		t.Errorf("straddling call: qps = %v, want %v", qps, 32/sliceLen.Seconds())
	}
}

// TestItemTimings: two items searched twice each, once disturbed; each costs
// its faster call.
func TestItemTimings(t *testing.T) {
	ms := func(d float64) time.Duration { return time.Duration(d * float64(time.Millisecond)) }
	win := window{elapsed: time.Second, calls: []call{
		{start: 0, end: ms(4), item: 0, queries: 1}, {start: ms(4), end: ms(7), item: 1, queries: 1},
		{start: ms(7), end: ms(9), item: 0, queries: 1}, {start: ms(9), end: ms(15), item: 1, queries: 1},
	}}
	if qps, tail, n := itemTimings(&win, 1); qps != 400 || tail != 3 || n != 2 {
		t.Errorf("qps, tail, items = %v, %v, %d; want 400, 3, 2", qps, tail, n)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Fatalf("quartiles = %v, %v; Python gives 3.5, 31.0", q1, q3)
	}
}
