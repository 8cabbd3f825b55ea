// Package balltree implements both of the paper's indexes as one tree.
//
// Section III — Ball-Tree: the classical ball hierarchy revisited for
// point-to-hyperplane nearest neighbor search with a node-level ball bound
// (Theorem 2) and a branch-and-bound search scheme (Algorithm 3). The tree
// indexes lifted data points x = (p; 1); each node covers a contiguous range
// of the data, which the builder reorders in place, so leaf verification — and
// every pass of the build — is a sequential scan.
//
// The lift is an invariant, not an assumption: BuildOwned panics on a row
// whose last coordinate is not exactly 1 and Load refuses a centre whose last
// coordinate is not, so every point and every centre a search reads or
// derives has it. For a query q = (w; b), x - c = (p - c_p; 0) and
// |<q, x - c>| <= ||w|| ||x - c||: the ball bounds (Theorem 2, Corollary 1)
// charge a radius ||w|| plus a rounding allowance of radiusSlack·||q||
// (ballScale), where the paper charges ||q||. The offset b moves a whole ball
// and widens none; the bound gains most for hyperplanes far from the data.
// What is charged ||q|| stays so: the rounding of a derived product (kappa),
// the cone bound (an angle in the lifted space) and the float32 screen.
//
// Section IV — BC-Tree: a Ball-Tree whose leaf nodes additionally maintain
// Ball and Cone structures per data point. They enable two O(1) point-level
// lower bounds — the point-level ball bound (Corollary 1) and the tighter
// point-level cone bound (Theorem 3) — which prune individual candidates
// inside a leaf before the O(d) verification, and a collaborative inner
// product computing strategy (Lemma 2) that nearly halves the node-level
// bound cost (Theorem 5).
//
// The two differ in what Build leaves in the arena (Kind): a Ball kind tree
// carries no per-point arrays and zero centerNorms, so its searches run with
// neither point-level bound (of the Figure 8 switches, DisablePointBall is
// forced on and PointCone off), and it keeps a centre for every node, so both
// children's inner products are computed — which is exactly Algorithm 3. A BC
// kind tree keeps centres for the root and for left children only: Lemma 2
// makes a right child's dead weight, and with them gone a BC search has no
// other way to a right child's inner product. Traversal, leaf scans, the
// batched engine, the codec and attribute pushdown exist once.
//
// There is one exact walk and one best-first driver, over one node step
// (Searcher.step: attribute skip, strict pruning, leaf scan, the children's
// inner products and the group's child-order vote). An exact search
// (Budget <= 0) is the paper's depth-first recursion, run once for a whole
// group of queries: Search is the walk over a group of one, SearchBatch over
// all its rows, and the children are opened in the order the group's
// preference vote picks — for one query, its own preferred child first. At a
// leaf, one scan serves every active query (Searcher.scanLeaf): ball cuts,
// then row lists where a call needs them, else whole tiles of queries share
// the multi-query kernel and every other query verifies alone. A budgeted
// search opens nodes best-first, query by query, from a min-heap frontier
// keyed by the centre's offset over the ball's size — |<q,c>| / r for a leaf,
// |<q,c>| / 2r for an internal node, which costs no budget to open — so the
// budget is spent on the leaves nearest the hyperplane wherever they sit in
// the tree, instead of on the first subtree a depth-first walk dives into. The
// code selects the driver from Budget; there is no option for it.
//
// The builder owns its rows and speaks its holder's ids. BuildOwned takes the
// matrix it is handed as the tree's storage and partitions the rows as it
// partitions their ids, so a build allocates no second copy of the data; the
// ids it reports are the labels its caller gave the rows — row numbers for a
// standalone tree, global row numbers for a shard's tree (internal/shard),
// handles for a dynamic index's snapshot (internal/dynamic) — so no holder
// keeps a translation table beside its tree. Build is BuildOwned over a clone,
// for callers that share their matrix.
//
// Storage is a flat arena: all nodes live in one []nodeRec slice in preorder
// (the left child of node i is node i+1, the right child is addressed by
// index), the node centers are packed into one contiguous matrix (Ball: row i
// = center of node i; BC: the root's row, then the left children's in arena
// order — (nodes+1)/2 rows, each internal node holding its left child's row
// where a left link would be), and the per-point cone structures are two
// position-indexed arrays of length n — each storage position belongs to
// exactly one leaf, so a leaf's slice of those arrays is contiguous. Theorem 6
// counts three numbers a point; the third, the point-level ball radius r_x, is
// the hypotenuse over the cone pair's offset from the centre,
// r_x^2 = (||x|| sin phi)^2 + (||x|| cos phi - ||c||)^2, and is derived from
// the stored pair and the leaf's centerNorm wherever a bound needs it
// (vec.ConeGrid.Radius), widened by what the pair's rounding can hide; a leaf
// is stored in descending order of that derived radius. The two arrays hold
// 16-bit codes on grids that the leaf's radius, centerNorm and the dimension
// fix (vec.ConeGrid: no per-leaf field describes them), rounded at build time
// in the direction that can only lower a bound (rejections up, projections
// toward zero), so they cost 4 bytes a point and exact results are
// unaffected. The same rule covers what a search
// computes: a product derived by Lemma 2 carries a bound on the float32
// rounding of the centres behind it (kappa, see Searcher.step), and the cone
// bound's rejections carry the error of the subtraction under their root
// (vec.Rejection). Leaf verification runs as a fused bound kernel plus one
// blocked inner-product call over sequential memory (vec.BallCutoff /
// vec.DotBlockWithin), with the cone bound's vec.ConeSelect between them
// when a search opts into it (SearchOptions.PointCone).
package balltree
