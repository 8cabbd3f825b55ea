// Package exec is the query-execution engine shared by the indexes: the
// chunked and pull-scheduled fan-out helpers (ForChunks, ForEach) that
// re-raise a worker's panic in the caller, typed free lists of pooled scratch
// (so steady-state search allocates nothing), and the scratch arena behind
// the tree walk that serves a whole group of queries at once.
//
// The engine rests on one invariant established by internal/core and the
// strict pruning inequalities in the tree searches: exact results are
// *canonical* — the unique k smallest (Dist, ID) pairs — so any traversal
// order that offers a superset of the true top-k to the collector returns
// bitwise-identical results. That is what lets the tree walk share node
// visits and leaf verification across queries without replicating each
// query's individual branch order, makes a single query that walk over a
// group of one, and lets the float32 leaf screen drop provably-losing rows
// without changing a single returned byte.
//
// BatchScratch is deliberately a bag of flat, growable arrays: one walk
// touches the active sets of every node on its path in tight loops, and
// carving them LIFO from one arena keeps those loops cache-friendly and
// allocation-free in steady state.
package exec
