package core

import (
	"sync/atomic"
	"time"
)

// Stats counts the work one query performed. The counters map onto the cost
// model of the paper's Section III-C: candidate verifications (exhaustive
// leaf scans), lower-bound computations, and node traversal. The JSON names
// are the wire's: a search response carries the counters as they are, and the
// router sums its members' with Add.
type Stats struct {
	IPCount       int64 `json:"ip_count"`       // full O(d) inner products (bound centers + verification)
	Candidates    int64 `json:"candidates"`     // data points verified against the query
	NodesVisited  int64 `json:"nodes_visited"`  // internal + leaf nodes whose bound was evaluated
	LeavesVisited int64 `json:"leaves_visited"` // leaf nodes scanned
	PrunedNodes   int64 `json:"pruned_nodes"`   // subtrees cut by the node-level ball bound
	PrunedPoints  int64 `json:"pruned_points"`  // leaf points skipped by point-level bounds
	BucketProbes  int64 `json:"bucket_probes"`  // hash-table probes (NH/FH only)
	CollabIPs     int64 `json:"collab_ips"`     // O(1) center inner products obtained via Lemma 2

	// Predicate-pushdown counters (Pred searches on attribute-carrying
	// trees). FilterSkippedNodes counts subtrees skipped because the
	// per-node attribute summaries proved the predicate cannot match;
	// FilterSkippedPoints totals the points under them — work a post-filter
	// scan would have paid per row. The wire omits them when zero.
	FilterSkippedNodes  int64 `json:"filter_skipped_nodes,omitempty"`
	FilterSkippedPoints int64 `json:"filter_skipped_points,omitempty"`
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.IPCount += o.IPCount
	s.Candidates += o.Candidates
	s.NodesVisited += o.NodesVisited
	s.LeavesVisited += o.LeavesVisited
	s.PrunedNodes += o.PrunedNodes
	s.PrunedPoints += o.PrunedPoints
	s.BucketProbes += o.BucketProbes
	s.CollabIPs += o.CollabIPs
	s.FilterSkippedNodes += o.FilterSkippedNodes
	s.FilterSkippedPoints += o.FilterSkippedPoints
}

// Phase identifies one bucket of the Figure 10 time-profile breakdown. The
// figure's fourth column, "Others", is no phase: it is what the wall time
// leaves after these three.
type Phase int

const (
	// PhaseVerify is candidate verification: exact |<x,q>| on data points.
	PhaseVerify Phase = iota
	// PhaseBound is lower-bound computation (tree methods).
	PhaseBound
	// PhaseLookup is hash computation and bucket probing (NH/FH).
	PhaseLookup
	numPhases
)

// String names the phase as the paper's Figure 10 legend does.
func (p Phase) String() string {
	switch p {
	case PhaseVerify:
		return "Verification"
	case PhaseBound:
		return "Lower Bounds"
	case PhaseLookup:
		return "Table Lookup"
	}
	return "Unknown"
}

// Profile accumulates wall-clock time per phase. A nil *Profile disables
// instrumentation; index search loops only call time.Now when one is set.
// A profile records the path a call takes and never chooses it: a profiled
// call runs the unprofiled call's code and returns its answers and Stats —
// the serving engine's result cache included, so a profiled call it answers
// from the cache runs no index code and charges no phase.
// It is safe for concurrent use, so one profile serves a call on any number
// of goroutines: each phase sums the time of every goroutine that served the
// call, as Stats counters do, and on a parallel call can exceed wall time.
// Read it once the call has returned. Durations stays a plain array, not
// atomic.Int64s, so that a profile can be copied as a value once read; hence
// on 32-bit platforms a profile must be 64-bit aligned, as one allocated on
// its own is.
type Profile struct {
	Durations [numPhases]time.Duration
}

// Add accrues d into phase p, one atomic add. Add on a nil profile is a
// no-op.
func (pr *Profile) Add(p Phase, d time.Duration) {
	if pr == nil {
		return
	}
	atomic.AddInt64((*int64)(&pr.Durations[p]), int64(d))
}

// Total returns the sum over all phases.
func (pr *Profile) Total() time.Duration {
	var t time.Duration
	for p := range numPhases {
		t += pr.Get(p)
	}
	return t
}

// Get returns the accumulated duration for phase p.
func (pr *Profile) Get(p Phase) time.Duration {
	if pr == nil {
		return 0
	}
	return time.Duration(atomic.LoadInt64((*int64)(&pr.Durations[p])))
}
