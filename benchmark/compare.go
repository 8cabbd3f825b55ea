package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// compareMain implements `benchmark compare A.jsonl B.jsonl`: A is the parent
// commit's runs, B the change's, each the file -out appended to over several
// seeds of every workload. One row per workload x metric; the bounds come
// from BENCHMARK.json. It exits 1 if any end-to-end metric regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare A.jsonl B.jsonl")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	a, err := readRuns(args[0])
	if err == nil {
		var b runSet
		if b, err = readRuns(args[1]); err == nil {
			if regressed := writeComparison(stdout, spec, a, b); regressed > 0 {
				fmt.Fprintf(stderr, "benchmark: %d end-to-end metrics regressed\n", regressed)
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(stderr, "benchmark: %v\n", err)
	return 1
}

// runSet is every value seen, by workload, then metric name. End-to-end
// metrics and detail (under detailPrefix + name) come from untraced runs,
// per-layer metrics from traced runs.
type runSet map[string]map[string][]float64

const detailPrefix = "detail:"

func readRuns(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var doc runDoc
		if err := json.Unmarshal(sc.Bytes(), &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if set[doc.Workload] == nil {
			set[doc.Workload] = map[string][]float64{}
		}
		for name, m := range doc.Metrics {
			set[doc.Workload][name] = append(set[doc.Workload][name], m.Value)
		}
		if doc.Trace {
			continue // a traced run's detail is of its short traced window
		}
		for name, m := range doc.Detail {
			set[doc.Workload][detailPrefix+name] = append(set[doc.Workload][detailPrefix+name], m.Value)
		}
	}
	return set, sc.Err()
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them, which is what the driver uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	if len(s) < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

func writeComparison(out io.Writer, spec *benchSpec, a, b runSet) (regressed int) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tB median\tworse by\tspread\tbound\truns\tverdict\t")
	for _, w := range spec.Workloads {
		ra, rb := a[w.Name], b[w.Name]
		row := func(def metricDef, key string, bounded bool) {
			va, vb := ra[key], rb[key]
			if len(va) == 0 || len(vb) == 0 {
				return
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if def.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(va), spread(vb))
			verdict, bound := "", ""
			if bounded {
				bound = fmt.Sprintf("%.3f", def.Bound)
				switch {
				case worse > def.Bound:
					verdict = "REGRESSED"
					regressed++
				case sp > def.Bound:
					verdict = "unresolved"
				case worse < -sp && worse < 0:
					verdict = "improved"
				default:
					verdict = "ok"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%s\t%d/%d\t%s\t\n",
				w.Name, def.Name, def.Unit, ma, mb, 100*worse, 100*sp, bound, len(va), len(vb), verdict)
		}
		for _, def := range spec.EndToEnd {
			row(def, def.Name, true)
		}
		for _, def := range spec.PerLayer {
			row(def, def.Name, false)
		}
		var detail []string
		for key := range ra {
			if strings.HasPrefix(key, detailPrefix) {
				detail = append(detail, key)
			}
		}
		sort.Strings(detail)
		for _, key := range detail {
			// A detail metric is a time unless it repeats a per-layer
			// metric's name, whose unit and direction it then has.
			def := metricDef{Name: strings.TrimPrefix(key, detailPrefix), Better: "lower"}
			for _, pl := range spec.PerLayer {
				if pl.Name == def.Name {
					def = pl
				}
			}
			row(def, key, false)
		}
	}
	_ = tw.Flush()
	return regressed
}
