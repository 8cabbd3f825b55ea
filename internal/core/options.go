package core

import "p2h/internal/attr"

// Preference selects the order in which the tree search opens nodes
// (paper Section III-C, "Branch Preference Choice"). An exact search is the
// paper's depth-first walk and the preference orders the two children of a
// node; a budgeted search (Budget > 0) opens nodes best-first from one
// frontier and the preference is the key the frontier is ordered by.
type Preference int

const (
	// PrefCenter prefers the center nearer the hyperplane: depth-first, the
	// child with the smaller |<q,c>|; best-first, the node with the smaller
	// |<q,c>| / r, the center's offset relative to the ball's radius, which
	// compares balls of different sizes. The paper's default and the
	// uniformly better choice (Figure 7), on both drivers.
	PrefCenter Preference = iota
	// PrefLowerBound prefers the smaller node-level ball bound
	// |<q,c>| - ||q||·r (clamped at zero depth-first, unclamped as a frontier
	// key). Kept for the Figure 7 comparison.
	PrefLowerBound
)

// String returns the label used in experiment output.
func (p Preference) String() string {
	if p == PrefLowerBound {
		return "lower-bound"
	}
	return "center"
}

// SearchOptions parameterizes one P2HNNS query against any index.
type SearchOptions struct {
	// K is the number of neighbors to return. Zero means 1.
	K int
	// Budget caps the number of candidate verifications; once reached the
	// search stops and returns its current best results. This is the
	// paper's "candidate fraction" approximation knob. Budget <= 0 means
	// unlimited, which makes the tree methods exact. The ball trees spend a
	// budget best-first — the most promising unopened node anywhere in the
	// tree is opened next — so the candidates verified under a budget are a
	// prefix of those verified under any larger one, recall never falls as
	// the budget grows, and Budget >= n returns the exact answer.
	Budget int
	// Preference picks the order nodes are opened in by the tree methods:
	// the child order of an exact search, the frontier key of a budgeted one.
	Preference Preference
	// Filter, if non-nil, restricts the search to ids it accepts: rejected
	// points are neither verified nor counted against the budget. Used for
	// tombstones (internal/dynamic) and ad-hoc filtering. Being an opaque
	// function, it has no wire form and defeats the serving result cache;
	// prefer Pred for attribute filtering.
	Filter func(id int32) bool
	// Pred, if non-nil, restricts the search to points whose attribute
	// payload satisfies the declarative predicate. Unlike Filter it is
	// data, not code: it serializes (the p2hd JSON "filter" field and the
	// cluster router forward it), participates in the serving result cache
	// via its canonical encoding, and the tree indexes push it down —
	// per-node attribute summaries skip whole subtrees the predicate
	// provably cannot match. Results are exactly the ones an equivalent
	// Filter would produce; rejected points are neither verified nor
	// counted against the budget. On an index without an attribute store
	// the predicate constant-folds against the empty payload: it either
	// accepts everything or nothing. Pred composes with Filter (both must
	// accept). A Pred must be valid (attr.Pred.Validate) and treated as
	// immutable once a search has seen it.
	Pred *attr.Pred
	// Profile, if non-nil, receives the per-phase time breakdown
	// (Figure 10). Leaving it nil removes all timing overhead.
	Profile *Profile
	// Cancel, if non-nil, is polled between traversal steps (the tree
	// methods check it at every node visit, so at least once per leaf
	// block); when it reports true the search abandons the remaining
	// traversal and returns the best results found so far. This is the
	// cooperative half of deadline propagation: a serving layer derives
	// Cancel from a request context so an expired query stops burning the
	// worker instead of finishing a scan nobody is waiting for. Results of
	// a canceled search are valid but possibly incomplete; callers that
	// need to distinguish must check their own cancellation signal after
	// the call.
	Cancel func() bool

	// The two switches below ablate BC-Tree's point-level bounds (paper
	// Figure 8). They are ignored by the other indexes. Collaborative inner
	// product computing (Lemma 2, Theorem 5) has no switch: a BC-Tree does
	// not store the centres a search would need without it.

	// DisablePointBall turns off the point-level ball bound (Corollary 1),
	// producing the paper's BC-Tree-wo-B variant.
	DisablePointBall bool
	// DisablePointCone turns off the point-level cone bound (Theorem 3),
	// producing the paper's BC-Tree-wo-C variant. Setting both switches
	// yields BC-Tree-wo-BC (exhaustive leaf scans, as Ball-Tree does).
	DisablePointCone bool
	// DisableQuantFilter turns off the quantized leaf filter on trees built
	// with quantization (Spec.Quantize), forcing the pure float leaf scan.
	// Results are identical either way — the filter is exact — so this is
	// an ablation/escape hatch for measuring the filter's contribution.
	DisableQuantFilter bool
}

// Normalized returns a copy with defaults applied.
func (o SearchOptions) Normalized() SearchOptions {
	if o.K <= 0 {
		o.K = 1
	}
	return o
}

// BudgetLeft reports whether more candidates may be verified given the count
// so far.
func (o SearchOptions) BudgetLeft(verified int64) bool {
	return o.Budget <= 0 || verified < int64(o.Budget)
}

// Canceled polls the cooperative cancellation signal; false when none is
// attached.
func (o SearchOptions) Canceled() bool {
	return o.Cancel != nil && o.Cancel()
}
