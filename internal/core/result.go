package core

import "sort"

// Result is one answer of a top-k P2HNNS query: the data point ID and its
// point-to-hyperplane distance |<x, q>|. The JSON names are the wire's: the
// daemon and the router send results as they are.
type Result struct {
	ID   int32   `json:"id"`
	Dist float64 `json:"dist"`
}

// SortResults orders results by ascending distance, breaking ties by ID so
// that output is deterministic across methods.
func SortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Dist != rs[j].Dist {
			return rs[i].Dist < rs[j].Dist
		}
		return rs[i].ID < rs[j].ID
	})
}

// MergeResults merges top-k lists over disjoint id sets into the global top
// k: it concatenates them, orders the whole by SortResults and cuts it to k.
// The lists are left as they are, and the result is never nil, so an empty
// answer encodes as [] on the wire. The in-process Sharded index and the
// cluster router merge their shards' answers through it.
func MergeResults(lists [][]Result, k int) []Result {
	var n int
	for _, l := range lists {
		n += len(l)
	}
	merged := make([]Result, 0, n)
	for _, l := range lists {
		merged = append(merged, l...)
	}
	SortResults(merged)
	return merged[:min(len(merged), k)]
}
