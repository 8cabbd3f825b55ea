package p2h

import (
	"fmt"

	"p2h/internal/attr"
	"p2h/internal/balltree"
	"p2h/internal/core"
	"p2h/internal/fh"
	"p2h/internal/kdtree"
	"p2h/internal/linearscan"
	"p2h/internal/nh"
	"p2h/internal/vec"
)

// Matrix is a dense row-major collection of vectors; see FromRows.
type Matrix = vec.Matrix

// Result is one answer of a top-k query: a data point ID (row index of the
// data matrix) and its point-to-hyperplane distance.
type Result = core.Result

// Stats counts the work one query performed.
type Stats = core.Stats

// SearchOptions parameterizes one query; the zero value asks for the exact
// single nearest neighbor.
type SearchOptions = core.SearchOptions

// Profile is the optional per-phase time breakdown of a query.
type Profile = core.Profile

// Preference selects the tree traversal order.
type Preference = core.Preference

// Branch preference choices (paper Section III-C). PrefCenter is the default
// and the uniformly better option (paper Figure 7).
const (
	PrefCenter     = core.PrefCenter
	PrefLowerBound = core.PrefLowerBound
)

// NewMatrix allocates an n x d matrix of zeros.
func NewMatrix(n, d int) *Matrix { return vec.NewMatrix(n, d) }

// FromRows builds a data matrix by copying equal-length rows.
func FromRows(rows [][]float32) *Matrix { return vec.FromRows(rows) }

// Index is the common interface of every P2HNNS index in this library.
//
// Search panics if the query dimensionality is not Dim()+1 (normal plus
// offset); mismatched dimensions are a programming error, not a runtime
// condition.
type Index interface {
	// Search returns the top-k points nearest the hyperplane q = (w; b).
	Search(q []float32, opts SearchOptions) ([]Result, Stats)
	// IndexBytes reports the memory footprint of the index structure.
	IndexBytes() int64
	// N returns the number of indexed points.
	N() int
	// Dim returns the dimensionality of the indexed points.
	Dim() int
}

// canonicalQuery validates that q is a hyperplane over d-dimensional points
// and rescales it to a unit normal if needed, returning the query to use.
// Validation goes through core.CheckQuery — the one checked path shared with
// the batch surface and the serving engine — and reports ErrDimMismatch /
// ErrZeroNormal. A normal already within core.UnitNormBand of unit length
// passes as-is, sparing upstream-normalized queries a copy-and-rescale.
func canonicalQuery(q []float32, d int) ([]float32, error) {
	n, err := core.CheckQuery(q, d)
	if err != nil {
		return nil, err
	}
	if core.UnitNormBand(n) {
		return q, nil
	}
	out := make([]float32, len(q))
	copy(out, q)
	vec.Scale(out, 1/n)
	return out, nil
}

// checkQuery is the panicking wrapper over canonicalQuery backing the Index
// Search contract (mismatched dimensions are a programming error).
func checkQuery(q []float32, d int) []float32 {
	out, err := canonicalQuery(q, d)
	if err != nil {
		panic("p2h: " + err.Error())
	}
	return out
}

// Hyperplane assembles a query vector from a normal and an offset: the
// hyperplane {y : <normal, y> + offset = 0}.
func Hyperplane(normal []float32, offset float64) []float32 {
	q := make([]float32, len(normal)+1)
	copy(q, normal)
	q[len(normal)] = float32(offset)
	return q
}

// Distance returns the exact point-to-hyperplane distance of the paper's
// Equation 1; unlike index results it does not require a unit normal.
func Distance(p []float32, q []float32) float64 {
	if len(q) != len(p)+1 {
		panic(fmt.Sprintf("p2h: query has dimension %d, want %d", len(q), len(p)+1))
	}
	n := vec.Norm(q[:len(p)])
	if n == 0 {
		panic("p2h: hyperplane normal must be non-zero")
	}
	num := vec.Dot(p, q[:len(p)]) + float64(q[len(p)])
	if num < 0 {
		num = -num
	}
	return num / n
}

// arenaIndex is what BallTree and BCTree share: one internal/balltree arena
// (the kind is a build-time fact of the tree) and the raw dimensionality.
// The exported types stay distinct so the registry can tell the kinds apart.
type arenaIndex struct {
	tree *balltree.Tree
	raw  int // raw point dimensionality d
}

// arenaBacked is satisfied by *BallTree and *BCTree through arenaIndex; the
// attribute type switches (attr.go) handle both kinds with one case.
type arenaBacked interface{ arena() *balltree.Tree }

func (t *arenaIndex) arena() *balltree.Tree { return t.tree }

// Search implements Index.
func (t *arenaIndex) Search(q []float32, opts SearchOptions) ([]Result, Stats) {
	return t.tree.Search(checkQuery(q, t.raw), opts)
}

// SearchBatch implements BatchIndex: one shared traversal for the whole
// batch.
func (t *arenaIndex) SearchBatch(queries *Matrix, opts SearchOptions) ([][]Result, []Stats) {
	return t.tree.SearchBatch(checkQueryBatch(queries, t.raw), opts)
}

// IndexBytes implements Index.
func (t *arenaIndex) IndexBytes() int64 { return t.tree.IndexBytes() }

// N implements Index.
func (t *arenaIndex) N() int { return t.tree.N() }

// Dim implements Index.
func (t *arenaIndex) Dim() int { return t.raw }

// BallTreeOptions configures NewBallTree. The zero value uses the paper's
// defaults (N0 = 100).
type BallTreeOptions struct {
	// LeafSize is the maximum leaf size N0; zero selects 100.
	LeafSize int
	// Seed makes construction deterministic.
	Seed int64
	// Quantize stores an 8-bit leaf mirror and filters leaf rows through its
	// exact error bound before float verification; see Spec.Quantize.
	Quantize bool
}

// BallTree is the paper's Section III index.
type BallTree struct{ arenaIndex }

// NewBallTree indexes the rows of data (raw points; the lift x = (p; 1) is
// internal). It is a thin wrapper over New with Spec{Kind: KindBallTree}
// that panics where New returns an error.
func NewBallTree(data *Matrix, opts BallTreeOptions) *BallTree {
	return mustNew(data, Spec{
		Kind: KindBallTree, LeafSize: opts.LeafSize, Seed: opts.Seed, Quantize: opts.Quantize,
	}).(*BallTree)
}

// SearchNN returns the k indexed points nearest to the point p in Euclidean
// distance — the classic Ball-Tree query sharing the same tree as the
// hyperplane search. p has the data dimensionality Dim().
func (t *BallTree) SearchNN(p []float32, k int) ([]Result, Stats) {
	return t.tree.SearchNN(liftPoint(p, t.raw), k)
}

// SearchFN returns the k indexed points furthest from the point p in
// Euclidean distance.
func (t *BallTree) SearchFN(p []float32, k int) ([]Result, Stats) {
	return t.tree.SearchFN(liftPoint(p, t.raw), k)
}

// SearchMIP returns the k indexed points with the largest inner product
// against q. q may have dimension Dim() (plain inner product <q, p>) or
// Dim()+1 (affine score <w, p> + b for q = (w; b)). Result distances hold
// the scores.
func (t *BallTree) SearchMIP(q []float32, k int) ([]Result, Stats) {
	switch len(q) {
	case t.raw:
		lifted := make([]float32, t.raw+1)
		copy(lifted, q) // trailing 0: the lifted 1-coordinate contributes nothing
		return t.tree.SearchMIP(lifted, k)
	case t.raw + 1:
		return t.tree.SearchMIP(q, k)
	}
	panic(fmt.Sprintf("p2h: MIP query has dimension %d, want %d or %d", len(q), t.raw, t.raw+1))
}

// liftPoint appends a trailing 1 so a raw point aligns with the lifted
// storage; for Euclidean queries the matching constants cancel in every
// difference.
func liftPoint(p []float32, d int) []float32 {
	if len(p) != d {
		panic(fmt.Sprintf("p2h: point has dimension %d, want %d", len(p), d))
	}
	out := make([]float32, d+1)
	copy(out, p)
	out[d] = 1
	return out
}

// BCTreeOptions configures NewBCTree. The zero value uses the paper's
// defaults (N0 = 100).
type BCTreeOptions struct {
	// LeafSize is the maximum leaf size N0; zero selects 100.
	LeafSize int
	// Seed makes construction deterministic.
	Seed int64
	// Quantize stores an 8-bit leaf mirror and filters leaf rows through its
	// exact error bound after the ball and cone bounds; see Spec.Quantize.
	Quantize bool
}

// BCTree is the paper's Section IV index: Ball-Tree plus point-level ball
// and cone bounds and collaborative inner product computing.
type BCTree struct{ arenaIndex }

// NewBCTree indexes the rows of data (raw points; the lift is internal). It
// is a thin wrapper over New with Spec{Kind: KindBCTree} that panics where
// New returns an error.
func NewBCTree(data *Matrix, opts BCTreeOptions) *BCTree {
	return mustNew(data, Spec{
		Kind: KindBCTree, LeafSize: opts.LeafSize, Seed: opts.Seed, Quantize: opts.Quantize,
	}).(*BCTree)
}

// KDTreeOptions configures NewKDTree.
type KDTreeOptions struct {
	// LeafSize is the maximum leaf size; zero selects 100.
	LeafSize int
}

// KDTree is the bounding-box alternative the paper's Section III-A discusses.
type KDTree struct {
	tree  *kdtree.Tree
	raw   int
	attrs *attr.Store
}

// NewKDTree indexes the rows of data. It is a thin wrapper over New with
// Spec{Kind: KindKDTree} that panics where New returns an error.
func NewKDTree(data *Matrix, opts KDTreeOptions) *KDTree {
	return mustNew(data, Spec{Kind: KindKDTree, LeafSize: opts.LeafSize}).(*KDTree)
}

// Search implements Index.
func (t *KDTree) Search(q []float32, opts SearchOptions) ([]Result, Stats) {
	opts, empty := applyPred(opts, t.attrs)
	if empty {
		return nil, Stats{}
	}
	return t.tree.Search(checkQuery(q, t.raw), opts)
}

// IndexBytes implements Index.
func (t *KDTree) IndexBytes() int64 { return t.tree.IndexBytes() }

// N implements Index.
func (t *KDTree) N() int { return t.tree.N() }

// Dim implements Index.
func (t *KDTree) Dim() int { return t.raw }

// NHOptions configures NewNH; zero values select the defaults documented on
// the fields.
type NHOptions struct {
	// Lambda is the sampled transform dimension (zero: 2*(Dim+1)).
	Lambda int
	// M is the number of hash projections (zero: 64).
	M int
	// L is the collision threshold (zero: 2).
	L int
	// Seed makes construction deterministic.
	Seed int64
}

// NH is the nearest-hyperplane hashing baseline (Huang et al., SIGMOD 2021).
type NH struct {
	index *nh.Index
	raw   int
	attrs *attr.Store
}

// NewNH indexes the rows of data. It is a thin wrapper over New with
// Spec{Kind: KindNH} that panics where New returns an error.
func NewNH(data *Matrix, opts NHOptions) *NH {
	return mustNew(data, Spec{
		Kind: KindNH, Lambda: opts.Lambda, M: opts.M, L: opts.L, Seed: opts.Seed,
	}).(*NH)
}

// Search implements Index.
func (t *NH) Search(q []float32, opts SearchOptions) ([]Result, Stats) {
	opts, empty := applyPred(opts, t.attrs)
	if empty {
		return nil, Stats{}
	}
	return t.index.Search(checkQuery(q, t.raw), opts)
}

// IndexBytes implements Index.
func (t *NH) IndexBytes() int64 { return t.index.IndexBytes() }

// N implements Index.
func (t *NH) N() int { return t.index.N() }

// Dim implements Index.
func (t *NH) Dim() int { return t.raw }

// FHOptions configures NewFH; zero values select the defaults documented on
// the fields.
type FHOptions struct {
	// Lambda is the sampled transform dimension (zero: 2*(Dim+1)).
	Lambda int
	// M is the number of hash projections per partition (zero: 64).
	M int
	// L is the separation threshold (zero: 2).
	L int
	// B is the norm partition ratio in (0,1) (zero: 0.9).
	B float64
	// Seed makes construction deterministic.
	Seed int64
}

// FH is the furthest-hyperplane hashing baseline (Huang et al., SIGMOD 2021).
type FH struct {
	index *fh.Index
	raw   int
	attrs *attr.Store
}

// NewFH indexes the rows of data. It is a thin wrapper over New with
// Spec{Kind: KindFH} that panics where New returns an error.
func NewFH(data *Matrix, opts FHOptions) *FH {
	return mustNew(data, Spec{
		Kind: KindFH, Lambda: opts.Lambda, M: opts.M, L: opts.L, B: opts.B, Seed: opts.Seed,
	}).(*FH)
}

// Search implements Index.
func (t *FH) Search(q []float32, opts SearchOptions) ([]Result, Stats) {
	opts, empty := applyPred(opts, t.attrs)
	if empty {
		return nil, Stats{}
	}
	return t.index.Search(checkQuery(q, t.raw), opts)
}

// IndexBytes implements Index.
func (t *FH) IndexBytes() int64 { return t.index.IndexBytes() }

// N implements Index.
func (t *FH) N() int { return t.index.N() }

// Dim implements Index.
func (t *FH) Dim() int { return t.raw }

// LinearScan is the exhaustive baseline; exact, with no index structure.
type LinearScan struct {
	scan  *linearscan.Scanner
	raw   int
	attrs *attr.Store
}

// NewLinearScan wraps the rows of data for exhaustive search. It is a thin
// wrapper over New with Spec{Kind: KindLinearScan} that panics where New
// returns an error.
func NewLinearScan(data *Matrix) *LinearScan {
	return mustNew(data, Spec{Kind: KindLinearScan}).(*LinearScan)
}

// Search implements Index.
func (t *LinearScan) Search(q []float32, opts SearchOptions) ([]Result, Stats) {
	opts, empty := applyPred(opts, t.attrs)
	if empty {
		return nil, Stats{}
	}
	return t.scan.Search(checkQuery(q, t.raw), opts)
}

// SearchBatch implements BatchIndex: an exact batch streams the data once for
// the whole group (linearscan.Scanner.SearchBatch); any other takes the
// per-query path. Results and Stats are those of per-query Search calls.
func (t *LinearScan) SearchBatch(queries *Matrix, opts SearchOptions) ([][]Result, []Stats) {
	queries = checkQueryBatch(queries, t.raw)
	opts, empty := applyPred(opts, t.attrs)
	if empty {
		return make([][]Result, queries.N), make([]Stats, queries.N)
	}
	return t.scan.SearchBatch(queries, opts)
}

// IndexBytes implements Index: a scan has no index structure.
func (t *LinearScan) IndexBytes() int64 { return 0 }

// N implements Index.
func (t *LinearScan) N() int { return t.scan.N() }

// Dim implements Index.
func (t *LinearScan) Dim() int { return t.raw }

// Interface conformance checks.
var (
	_ Index = (*BallTree)(nil)
	_ Index = (*BCTree)(nil)
	_ Index = (*KDTree)(nil)
	_ Index = (*NH)(nil)
	_ Index = (*FH)(nil)
	_ Index = (*LinearScan)(nil)
)
