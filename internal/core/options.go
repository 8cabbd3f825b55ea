package core

import "p2h/internal/attr"

// Preference selects the order in which the tree search opens nodes
// (paper Section III-C, "Branch Preference Choice"). An exact search is the
// paper's depth-first walk and the preference orders the two children of a
// node; a budgeted search (Budget > 0) opens nodes best-first from one
// frontier and the preference is the key the frontier is ordered by. The
// exact walk serves a batch of queries at once, so there the child order is
// a vote: each query's key is summed over the group and the child with the
// smaller sum goes first — for a single query, its own preference.
type Preference int

const (
	// PrefCenter prefers the center nearer the hyperplane: depth-first, the
	// child with the smaller |<q,c>|; best-first, the node with the smaller
	// center offset relative to the ball's size, which compares balls of
	// different sizes: |<q,c>| / r for a leaf, |<q,c>| / 2r (its diameter)
	// for an internal node, which costs inner products but no budget to
	// open. A BC-Tree leaf takes for r the derived radius of its median
	// point, which one outlier does not inflate. The paper's default and the
	// uniformly better choice (Figure 7), on both drivers.
	PrefCenter Preference = iota
	// PrefLowerBound prefers the smaller node-level ball bound the search
	// prunes by, |<q,c>| less the radius charged the norm of the query's
	// normal plus a rounding allowance (clamped at zero depth-first,
	// unclamped as a frontier key). Kept for the Figure 7 comparison.
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
	// points are neither verified nor counted against the budget. It serves
	// ad-hoc filtering, and a dynamic index evaluates a Pred through it, per
	// handle against the stored payloads. Being an opaque function, it has
	// no wire form and defeats the serving result cache; prefer Pred for
	// attribute filtering. It must be a pure function of the id, safe to
	// call concurrently: a batch may ask it once per row for all of its
	// queries (the linear scan does), and parallel searches share it.
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
	// Cancel, if non-nil, is polled while a search runs: by the trees
	// (balltree, bctree, and the sharded and dynamic kinds' trees) at every
	// node visit, so at least once per leaf block; by the scan (linearscan
	// under any of its names, and a dynamic index's delta) once per 256-row
	// chunk; and by the batch fallback of the kinds without a batched path,
	// between rows. kdtree, nh and fh do not poll it inside a search. When it
	// reports true the search abandons the rest of its traversal or scan and
	// returns the best results found so far. This is the cooperative half
	// of deadline propagation: a serving layer derives Cancel from a request
	// context so an expired query stops burning the worker instead of
	// finishing a scan nobody is waiting for. Results of a canceled search
	// are valid but possibly incomplete; callers that need to distinguish
	// must check their own cancellation signal after the call.
	Cancel func() bool

	// The two switches below select BC-Tree's point-level bounds for the
	// paper's Figure 8 ablation. They are ignored by the other indexes.
	// Collaborative inner product computing (Lemma 2, Theorem 5) has no
	// switch: a BC-Tree does not store the centres a search would need
	// without it.

	// DisablePointBall turns off the point-level ball bound (Corollary 1).
	// With PointCone it is the paper's BC-Tree-wo-B variant; alone it is
	// BC-Tree-wo-BC (exhaustive leaf scans, as Ball-Tree does).
	DisablePointBall bool
	// PointCone turns on the point-level cone bound (Theorem 3), which the
	// paper's BC-Tree runs and a default search skips: on the surrogate
	// sets it removes well under 1 % of the candidates the ball bound
	// leaves, and costs more time than it saves (EXPERIMENTS.md). A default
	// search is the paper's BC-Tree-wo-C variant.
	PointCone bool
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

// ShareBudget is the share of a candidate budget that falls to one part of an
// index — a shard, a member — holding part of its total points: in
// proportion, rounded up, at least one. The budget is clamped to total first,
// as a budget of n or more is exact: every part then gets its own size, and
// the product behind the share cannot overflow. A budget of zero or less
// (exact), or a total not known to be positive, passes through.
func ShareBudget(budget int, part, total int64) int {
	if budget <= 0 || total <= 0 {
		return budget
	}
	return int(max(1, (min(int64(budget), total)*part+total-1)/total))
}

// Canceled polls the cooperative cancellation signal; false when none is
// attached.
func (o SearchOptions) Canceled() bool {
	return o.Cancel != nil && o.Cancel()
}
