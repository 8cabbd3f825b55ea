package main

import (
	"math"
	"sort"
	"time"
)

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank q-quantile; zero for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, zero when b is.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quietTimings reduces a window of many short concurrent calls to a rate and
// a tail latency by the statistic that repeats best on a shared host. The machines this runs on are slowed for
// seconds at a time by their neighbours (a busy sibling hyperthread halves an
// issue-bound loop, a crowded memory bus slows a scan): within one window the
// mean rate moved by 30% between runs while the rate of the fastest slices
// moved by 5%. Interference only ever slows a slice, so the window is cut into
// slices of sliceLen and
//
//   - qps is the read rate of the fastest slice, each call's queries spread
//     evenly over the time it ran;
//   - tailMS is the tailQ-quantile of the read call's latency over the calls
//     that completed in the quiet quarter of the slices (the fastest by rate).
//
// The window's wall-clock mean and median are reported beside them
// (workload.qps_wall, workload.lat_p50_ms).
func quietTimings(win *window, tailQ float64) (qps, tailMS float64, tailSamples int) {
	n := max(1, int(win.elapsed/sliceLen))
	each := win.elapsed / time.Duration(n)
	type slice struct {
		queries float64
		lat     []float64 // of the read calls that completed in it
	}
	slices := make([]slice, n)
	at := func(t time.Duration) int { return min(max(int(t/each), 0), n-1) }
	for _, c := range win.calls {
		first, last := at(c.start), at(c.end)
		if c.kind == 0 {
			slices[last].lat = append(slices[last].lat, c.ms())
		}
		if first == last {
			slices[last].queries += float64(c.queries)
			continue
		}
		perNS := float64(c.queries) / float64(c.end-c.start)
		for i := first; i <= last; i++ {
			lo, hi := max(c.start, time.Duration(i)*each), min(c.end, time.Duration(i+1)*each)
			slices[i].queries += perNS * float64(hi-lo)
		}
	}
	sort.Slice(slices, func(i, j int) bool { return slices[i].queries > slices[j].queries })
	var lat []float64
	for _, s := range slices[:(n+3)/4] {
		lat = append(lat, s.lat...)
	}
	return slices[0].queries / each.Seconds(), percentile(lat, tailQ), len(lat)
}

// itemTimings is the steady reduction of a window in which one caller repeats
// the same items of work (an op type on a query, or on a fixed group of
// queries) lap after lap: an item costs its fastest call, because interference
// only ever adds time. qps is the queries of the items the window reached over
// the sum of their costs; tailMS is the tailQ-quantile, over the read call's
// items, of the cost per query. On tree-batch, ten back-to-back windows gave
// 1469-1546 ops/s this way and 1006-1370 by the wall clock.
func itemTimings(win *window, tailQ float64) (qps, tailMS float64, tailSamples int) {
	type key struct{ kind, item int }
	type cost struct {
		ms      float64
		queries int
	}
	best := map[key]cost{}
	for _, c := range win.calls {
		k := key{c.kind, c.item}
		if b, ok := best[k]; !ok || c.ms() < b.ms {
			best[k] = cost{c.ms(), c.queries}
		}
	}
	var ms, queries float64
	var read []float64
	for k, b := range best {
		ms += b.ms
		queries += float64(b.queries)
		if k.kind == 0 {
			read = append(read, b.ms/float64(b.queries))
		}
	}
	return ratio(queries, ms/1e3), percentile(read, tailQ), len(read)
}
