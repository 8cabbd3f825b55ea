package p2h

import (
	"fmt"

	"p2h/internal/attr"
	"p2h/internal/core"
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
// Search and SearchBatch panic if the query dimensionality is not Dim()+1
// (normal plus offset); mismatched dimensions are a programming error, not a
// runtime condition.
type Index interface {
	// Search returns the top-k points nearest the hyperplane q = (w; b).
	Search(q []float32, opts SearchOptions) ([]Result, Stats)
	// SearchBatch answers one top-k query per row of queries, each row a
	// hyperplane as Search takes it. The results are bitwise the per-row
	// Search answers. A kind with a batched path of its own (balltree,
	// bctree, sharded, linearscan) shares the work across the rows, so an
	// exact batch's per-row Stats reflect the shared work; a budgeted batch,
	// and every batch of the other kinds, returns the per-row Stats too.
	SearchBatch(queries *Matrix, opts SearchOptions) ([][]Result, []Stats)
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

// inner is what the wrapper needs of an internal/* index: searches take lifted
// vectors and canonical (unit-normal) queries, the sizes are the index's own.
type inner interface {
	Search(q []float32, opts SearchOptions) ([]Result, Stats)
	N() int
	IndexBytes() int64
}

// handle is the one wrapper between the Index contract — raw points, any
// non-zero normal, a panic on a malformed query — and an inner index. Every
// index this package hands out is a *handle or one of the exported types that
// embed it to add methods of their own, and carries the row of the kind table
// it was built or loaded through.
type handle struct {
	kind *kind
	in   inner
	raw  int // raw point dimensionality d
	// attrs is the attached attribute store of a kind whose inner index has
	// no predicate path of its own (not an attrHolder).
	attrs *attr.Store
}

// wrapped is satisfied by everything New, Open and Load return: KindOf, Save
// and the attribute surface reach the handle through it.
type wrapped interface{ base() *handle }

func (t *handle) base() *handle { return t }

// Search implements Index.
func (t *handle) Search(q []float32, opts SearchOptions) ([]Result, Stats) {
	opts, empty := t.applyPred(opts)
	if empty {
		return nil, Stats{}
	}
	return t.in.Search(checkQuery(q, t.raw), opts)
}

// IndexBytes implements Index.
func (t *handle) IndexBytes() int64 { return t.in.IndexBytes() }

// N implements Index.
func (t *handle) N() int { return t.in.N() }

// Dim implements Index.
func (t *handle) Dim() int { return t.raw }

// liftPoint appends a trailing 1 so a raw point aligns with the lifted
// storage the trees keep.
func liftPoint(p []float32, d int) []float32 {
	if len(p) != d {
		panic(fmt.Sprintf("p2h: point has dimension %d, want %d", len(p), d))
	}
	out := make([]float32, d+1)
	copy(out, p)
	out[d] = 1
	return out
}

// LinearScan is the exhaustive baseline — exact, with no index structure —
// and the oracle every other kind is measured against: what New returns for
// KindLinearScan. Its batches stream the data once for the whole group.
type LinearScan struct{ handle }

// NewLinearScan wraps the rows of data for exhaustive search: New with
// Spec{Kind: KindLinearScan}, panicking where New returns an error. Ground
// truth is computed often enough to earn the one typed constructor.
func NewLinearScan(data *Matrix) *LinearScan {
	ix, err := New(data, Spec{Kind: KindLinearScan})
	if err != nil {
		panic("p2h: " + err.Error())
	}
	return ix.(*LinearScan)
}
