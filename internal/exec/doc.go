// Package exec is the query-execution engine shared by the tree indexes:
// reusable single-query searchers with pooled scratch (so steady-state
// search allocates nothing), and the scratch arena behind the batched
// traversal mode that walks a tree's arena once for a whole group of
// queries.
//
// The engine rests on one invariant established by internal/core and the
// strict pruning inequalities in the tree searches: exact results are
// *canonical* — the unique k smallest (Dist, ID) pairs — so any traversal
// order that offers a superset of the true top-k to the collector returns
// bitwise-identical results. That is what lets the batched traversal share
// node visits and leaf verification across queries without replicating each
// query's individual branch order — and what lets a quantized leaf filter
// (ResetQuant/QuantFilter, backed by internal/quant) drop provably-losing
// rows without changing a single returned byte.
//
// BatchScratch is deliberately a bag of flat, growable arrays rather than
// per-query structs: one traversal touches every query's state in tight
// loops, and packing (heaps, norms, widened queries, filter coefficients)
// into contiguous arrays keeps those loops cache-friendly and allocation-
// free in steady state. Eligible gates which option combinations may take
// the shared walk; everything else goes through Fallback on a pooled
// single-query Searcher.
package exec
