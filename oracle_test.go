package p2h_test

// The oracle matrix: the root package's one equivalence harness. Every row of
// oracleKinds answers every data set × shape through every path, and each
// answer is held to its cell's contract:
//
//   - an exact shape (no budget) is bitwise the brute-force reference's answer
//     (bruteForce: vec.Dot on every admitted row, then core.SortResults) —
//     ids, distances and the order of ties — on every path. The oracle
//     evaluates a Pred as a Filter closure over Pred.Matches, the row oracle,
//     so a bug in the compiled predicate or the per-node summaries cannot
//     hide behind itself;
//   - a budgeted shape is bitwise the index's own Search on every path, its
//     Pred equals the equivalent Filter closure on the same index, and a row
//     that sets the ignored Spec.Quantize equals its twin without it;
//   - every Search verifies at most n candidates, with at least as many inner
//     products, and under a budget at most budget + shards; the server's
//     second pass over a shape without a Filter is all cache hits.
//
// Exact answers are canonical (the k smallest (Dist, ID) pairs), which is what
// makes bitwise equality the contract rather than a tolerance.
//
// TestOracleMatrix runs all of it. The tests after it are named slices of the
// same matrix — a few rows, sets, shapes and paths under a name of their own,
// held to the same contract — so `go test -run TestPredEquivalence` runs the
// predicate sweep alone.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	p2h "p2h"
	"p2h/internal/core"
	"p2h/internal/vec"
)

// oracleKinds is the one table of specs the root tests build from: every kind
// of p2h.Kinds(), the tree kinds with the ignored Spec.Quantize set (the
// -quant rows, named for the 8-bit mirror it once built), the scan under its
// retired 8-bit alias (quantizedscan), sharded at 1, 4 and 8 shards, and a
// churned dynamic index (see churnedRow). NH and FH use M = 8: an exact hash
// search drains all m·n cursors.
var oracleKinds = []oracleKind{
	{"balltree", p2h.Spec{Kind: p2h.KindBallTree, LeafSize: 40, Seed: 11}},
	{"balltree-quant", p2h.Spec{Kind: p2h.KindBallTree, LeafSize: 40, Seed: 11, Quantize: true}},
	{"bctree", p2h.Spec{Kind: p2h.KindBCTree, LeafSize: 40, Seed: 11}},
	{"bctree-quant", p2h.Spec{Kind: p2h.KindBCTree, LeafSize: 40, Seed: 11, Quantize: true}},
	{"dynamic", p2h.Spec{Kind: p2h.KindDynamic, LeafSize: 40, Seed: 11}},
	{churnedRow, p2h.Spec{Kind: p2h.KindDynamic, LeafSize: 40, Seed: 11}},
	{"fh", p2h.Spec{Kind: p2h.KindFH, Lambda: 48, M: 8, Seed: 11}},
	{"kdtree", p2h.Spec{Kind: p2h.KindKDTree, LeafSize: 40}},
	{"linearscan", p2h.Spec{Kind: p2h.KindLinearScan}},
	{"nh", p2h.Spec{Kind: p2h.KindNH, Lambda: 48, M: 8, Seed: 11}},
	{"quantizedscan", p2h.Spec{Kind: p2h.KindQuantizedScan}},
	{"sharded", p2h.Spec{Kind: p2h.KindSharded, Shards: 4, LeafSize: 40, Seed: 11}},
	{"sharded-1", p2h.Spec{Kind: p2h.KindSharded, Shards: 1, LeafSize: 40, Seed: 11}},
	{"sharded-8", p2h.Spec{Kind: p2h.KindSharded, Shards: 8, LeafSize: 40, Seed: 11}},
	{"sharded-quant", p2h.Spec{Kind: p2h.KindSharded, Shards: 4, LeafSize: 40, Seed: 11, Quantize: true}},
}

type oracleKind struct {
	name string
	spec p2h.Spec
}

// oracleSet is one data axis value: the data, its queries, and whether only
// the sharded rows search it.
type oracleSet struct {
	name          string
	data, queries *p2h.Matrix
	shardedOnly   bool
}

// oracleSets: five generator families at n ≈ 700, each with a hyperplane
// through a data point among its queries; mirrored tie sets (seeds 1–3 for
// every row, 4–20 for the sharded rows, whose merge once cut ties by shard
// position); 100 identical points; and grids on a line and in the plane.
// They are made once and only read.
var oracleSets = sync.OnceValue(func() []oracleSet {
	var sets []oracleSet
	for i, name := range []string{"Sift", "Music", "GloVe", "Cifar-10", "Enron"} {
		data := p2h.Dedup(p2h.GenerateDataset(name, 700, int64(i+1)))
		// Ten queries — two groups of the multi-query kernel and two beside
		// them on one worker, a group and a remainder on one of three — the
		// last the plane with the first one's normal through row 123.
		queries := p2h.GenerateQueries(data, 10, int64(i+100))
		q, p := queries.Row(9), data.Row(123)
		copy(q, queries.Row(0))
		var off float64
		for j := range p {
			off -= float64(q[j]) * float64(p[j])
		}
		q[data.D] = float32(off)
		sets = append(sets, oracleSet{name, data, queries, false})
	}
	// The hyperplane x₁ = 0 five times over — as it is, flipped and scaled,
	// none of which changes which points tie — is one group for the
	// multi-query kernel and one query beside it.
	ties := p2h.FromRows([][]float32{{0, 1, 0}, {0, -1, 0}, {0, 2, 0}, {0, -3, 0}, {0, 0.5, 0}})
	for seed := int64(1); seed <= 20; seed++ {
		sets = append(sets, oracleSet{fmt.Sprintf("ties-%d", seed), tieSet(200, seed), ties, seed > 3})
	}
	rows := func(n int, row func(i int) []float32) *p2h.Matrix {
		out := make([][]float32, n)
		for i := range out {
			out[i] = row(i)
		}
		return p2h.FromRows(out)
	}
	return append(sets,
		oracleSet{"identical", rows(100, func(int) []float32 { return []float32{1, 2, 3} }), p2h.FromRows([][]float32{
			{1, 0, 0, 0}, {0, 1, 0, -2}, {1, 1, 1, 0}, {-1, 0.5, 0, 0.3}, {0, 0, -2, 1}}), false},
		oracleSet{"grid-d1", rows(32, func(i int) []float32 { return []float32{float32(i) - 15.5} }), p2h.FromRows([][]float32{
			{1, -0.25}, {1, 0}, {-2, 1}, {1, 7.5}, {3, -100}}), false},
		oracleSet{"grid-d2", rows(64, func(i int) []float32 { return []float32{float32(i%8) - 3.5, float32(i/8) - 3.5} }), p2h.FromRows([][]float32{
			{1, 0, -0.25}, {0, 1, 0}, {1, 1, 0}, {1, -2, 0.3}, {3, 1, -1}}), false})
})

func oracleSetNamed(t *testing.T, name string) oracleSet {
	i := slices.IndexFunc(oracleSets(), func(s oracleSet) bool { return s.name == name })
	if i < 0 {
		t.Fatalf("no oracle set %q", name)
	}
	return oracleSets()[i]
}

// tieSet returns 2*pairs shuffled points in the plane, mirrored pairs (a, ±b)
// with b one of five values. Against the hyperplane x₁ = 0 every point is at
// distance exactly b, so an exact top-k is decided by the order of ties almost
// everywhere.
func tieSet(pairs int, seed int64) *p2h.Matrix {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float32, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		a, b := float32(rng.NormFloat64()), 0.25*float32(1+rng.Intn(5))
		rows = append(rows, []float32{a, b}, []float32{a, -b})
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return p2h.FromRows(rows)
}

// attrsFor deterministically assigns attribute payloads to n rows: tags at
// ~1%, ~10% and ~50% selectivity, a dense float field and a small int field,
// with a sprinkling of fully empty payloads to exercise the presence
// bitmaps.
func attrsFor(n int) []p2h.PointAttrs {
	points := make([]p2h.PointAttrs, n)
	for i := range points {
		if i%13 == 5 {
			continue // no tags, no fields
		}
		var tags []string
		if i%100 == 0 {
			tags = append(tags, "hot")
		}
		if i%10 == 0 {
			tags = append(tags, "warm")
		}
		if i%2 == 0 {
			tags = append(tags, "even")
		}
		points[i] = p2h.PointAttrs{
			Tags:   tags,
			Floats: map[string]float64{"score": float64(i%1000) / 1000},
			Ints:   map[string]int64{"cat": int64(i % 7)},
		}
	}
	return points
}

// equivPreds is the selectivity sweep over attrsFor: the label notes the
// approximate match fraction. The last two match nothing at all.
var equivPreds = []struct {
	name string
	pred *p2h.Pred
}{
	{"tag1pct", p2h.TagIs("hot")},
	{"tag10pct", p2h.TagIs("warm")},
	{"tag50pct", p2h.TagIs("even")},
	{"range10pct", p2h.FieldBetween("score", 0, 0.099)},
	{"range50pct", p2h.FieldAtMost("score", 0.499)},
	{"intfield", p2h.FieldBetween("cat", 2, 3)},
	{"and", p2h.AllOf(p2h.TagIs("even"), p2h.FieldAtLeast("score", 0.5))},
	{"or", p2h.OneOf(p2h.TagIs("hot"), p2h.FieldBetween("score", 0.2, 0.25))},
	{"not", p2h.NotOf(p2h.TagIs("even"))},
	{"empty-tag", p2h.TagIs("absent")},
	{"empty-range", p2h.FieldBetween("score", 2, 3)},
}

// The paths an answer takes besides Search, which every cell checks.
// viaSearchBatch(w) is p2h.SearchBatch on w workers; viaIndexBatch is the
// index's own SearchBatch over the whole set; viaServer is two passes
// through a Server, the second from its cache; the twins are a second New
// from the same Spec, a Save→Load copy decoded off a stream, a SaveFile→Open
// copy decoded in place from the mapped file and, viaSaved, a second New that
// SaveFile has made serve from the file it wrote (persistable kinds only).
const (
	viaIndexBatch = "Index.SearchBatch"
	viaServer     = "Server"
	viaRebuilt    = "rebuilt"
	viaLoaded     = "loaded"
	viaOpened     = "opened"
	viaSaved      = "saved"
)

func viaSearchBatch(workers int) string { return "SearchBatch/" + strconv.Itoa(workers) }

var allPaths = []string{viaSearchBatch(1), viaSearchBatch(3), viaIndexBatch, viaServer, viaRebuilt, viaLoaded, viaOpened, viaSaved}

// oracleShape is one option shape and the paths it runs besides Search;
// a quantOnly shape runs only on the rows that set Spec.Quantize.
type oracleShape struct {
	name      string
	opts      p2h.SearchOptions
	paths     []string
	quantOnly bool
}

func oracleShapes(n int) []oracleShape {
	keep, budget := keepNotMod3, max(n/20, 1)
	shapes := []oracleShape{
		{name: "k1", opts: p2h.SearchOptions{K: 1}},
		{name: "k10", opts: p2h.SearchOptions{K: 10}},
		{name: "kBig", opts: p2h.SearchOptions{K: n + 3}},
		{name: "filter", opts: p2h.SearchOptions{K: 10, Filter: keep}},
		{name: "pred+filter", opts: p2h.SearchOptions{K: 10, Pred: p2h.TagIs("warm"), Filter: keep}},
		{name: "budget", opts: p2h.SearchOptions{K: 10, Budget: budget}},
		{name: "budget+pred", opts: p2h.SearchOptions{K: 10, Budget: budget, Pred: p2h.TagIs("even")}},
		// A Filter that rejects nothing leaves the prefix the bounds kept
		// whole, which is then verified in one block; the filter shape's
		// closure leaves it sparse. It runs on the rows that set the ignored
		// Spec.Quantize, whose trees once took a Filter down a scan of its
		// own.
		{name: "noquant", opts: p2h.SearchOptions{K: 10, Filter: acceptAll}, quantOnly: true},
	}
	for _, p := range equivPreds {
		shapes = append(shapes, oracleShape{name: "pred-" + p.name, opts: p2h.SearchOptions{K: 10, Pred: p.pred}})
	}
	for i := range shapes {
		shapes[i].paths = allPaths
	}
	return shapes
}

// asFilter folds opts.Pred into opts.Filter as a closure over Pred.Matches.
func asFilter(opts p2h.SearchOptions, points []p2h.PointAttrs) p2h.SearchOptions {
	if pred, filter := opts.Pred, opts.Filter; pred != nil {
		opts.Pred, opts.Filter = nil, func(id int32) bool {
			return pred.Matches(points[id]) && (filter == nil || filter(id))
		}
	}
	return opts
}

// oracleView is a slice of the matrix: rows of oracleKinds over named sets,
// every shape through Search and the paths it names. Nil sets or rows mean
// all of them; a row written "shown=row" runs under the name shown. Subtests
// are set/row/shape, with a set level only when there are several sets and
// no shape level for a shape without a name.
type oracleView struct {
	sets, rows []string
	shapes     func(n int) []oracleShape
}

func (v oracleView) run(t *testing.T) {
	t.Parallel()
	sets := oracleSets()
	if v.sets != nil {
		sets = nil
		for _, name := range v.sets {
			sets = append(sets, oracleSetNamed(t, name))
		}
	}
	if len(sets) == 1 {
		v.runSet(t, sets[0])
		return
	}
	for _, set := range sets {
		t.Run(set.name, func(t *testing.T) {
			t.Parallel()
			v.runSet(t, set)
		})
	}
}

func (v oracleView) runSet(t *testing.T, set oracleSet) {
	points := attrsFor(set.data.N)
	shapes := v.shapes(set.data.N)
	lifted := set.data.AppendOnes()
	want := make([][][]p2h.Result, len(shapes))
	for s, sh := range shapes {
		if sh.opts.Budget == 0 {
			want[s] = bruteForce(lifted, set.queries, asFilter(sh.opts, points))
		}
	}
	rows := v.rows
	if rows == nil {
		for _, row := range oracleKinds {
			rows = append(rows, row.name)
		}
	}
	for _, row := range rows {
		shown, name, ok := strings.Cut(row, "=")
		if !ok {
			name = shown
		}
		i := slices.IndexFunc(oracleKinds, func(k oracleKind) bool { return k.name == name })
		if i < 0 {
			t.Fatalf("no row %q in oracleKinds", name)
		}
		spec := oracleKinds[i].spec
		if set.shardedOnly && spec.Kind != p2h.KindSharded {
			continue
		}
		r := buildRow(t, set, spec, name == churnedRow, points, shapes)
		for s, sh := range shapes {
			if sh.quantOnly && !spec.Quantize {
				continue
			}
			t.Run(strings.TrimSuffix(shown+"/"+sh.name, "/"), func(t *testing.T) {
				checkCell(t, r, sh, want[s])
			})
		}
		if r.srv != nil {
			r.srv.Close()
		}
	}
}

// builtRow is one row built over one set with its attributes attached, and
// what its shapes' paths need besides. Where a shape takes viaOpened, a
// persistable row's ix has been saved by SaveFile before any cell runs and
// serves from that file: every path over ix then runs on adopted trees.
type builtRow struct {
	set    oracleSet
	spec   p2h.Spec
	points []p2h.PointAttrs
	ix     p2h.Index
	plain  p2h.Index            // a Quantize row's twin without the field, for budgeted shapes
	twins  map[string]p2h.Index // viaRebuilt, viaLoaded, viaOpened, viaSaved; nil where the kind cannot be saved
	srv    *p2h.Server

	// The viaSaved twin's budgeted answers before it was saved, by shape.
	presaved map[string][][]p2h.Result
}

func buildRow(t *testing.T, set oracleSet, spec p2h.Spec, churned bool, points []p2h.PointAttrs, shapes []oracleShape) *builtRow {
	build := func(spec p2h.Spec) p2h.Index {
		if churned {
			return churn(t, set, spec, points)
		}
		ix := p2h.MustBuild(t, set.data, spec)
		if ix.N() != set.data.N || ix.Dim() != set.data.D {
			t.Fatalf("shape %d×%d, want %d×%d", ix.N(), ix.Dim(), set.data.N, set.data.D)
		}
		if sh, ok := ix.(*p2h.Sharded); ok && sh.Shards() != spec.Shards {
			t.Fatalf("%d shards, want %d", sh.Shards(), spec.Shards)
		}
		if err := p2h.AttachAttributes(ix, points); err != nil {
			t.Fatal(err)
		}
		return ix
	}
	r := &builtRow{set: set, spec: spec, points: points, ix: build(spec), twins: map[string]p2h.Index{}}
	for _, sh := range shapes {
		if unq := spec; sh.opts.Budget > 0 && spec.Quantize && r.plain == nil {
			unq.Quantize = false
			r.plain = build(unq)
		}
		for _, path := range sh.paths {
			if _, done := r.twins[path]; done {
				continue
			}
			switch path {
			case viaServer:
				if r.srv == nil {
					r.srv = p2h.NewServer(r.ix, p2h.ServerOptions{Workers: 3})
				}
			case viaRebuilt:
				r.twins[path] = build(spec)
			case viaLoaded, viaOpened:
				r.twins[path] = nil
				if ok, _, _ := p2h.KindIsPersistable(spec.Kind); ok {
					r.twins[path] = saveAndRestore(t, r.ix, path == viaOpened)
				}
			case viaSaved:
				r.twins[path] = nil
				if ok, _, _ := p2h.KindIsPersistable(spec.Kind); ok {
					r.twins[path] = saveInPlace(t, build(spec), shapes, set.queries, r)
				}
			}
		}
	}
	return r
}

// churnedRow is the row churn builds.
const churnedRow = "dynamic-churned"

// churn builds a dynamic index whose live set is set.data, handle i holding
// row i, beside dead rows on both sides of its snapshot boundary: copies of
// every tenth row, bulk-loaded after the data and deleted (tombstones in the
// snapshot tree), and copies of every twentieth, inserted and deleted (dead
// delta rows). A copy lies at its original's distance from every hyperplane
// and carries its payload, so a dead row any path let through shows as a
// wrong id. Together they stay under the fold threshold: nothing is folded.
func churn(t *testing.T, set oracleSet, spec p2h.Spec, points []p2h.PointAttrs) p2h.Index {
	n := set.data.N
	rows := make([]int32, n, n+n/10+n/20+2)
	for i := range rows {
		rows[i] = int32(i)
	}
	for i := 0; i < n; i += 10 {
		rows = append(rows, int32(i))
	}
	ix := p2h.MustBuild(t, set.data.SubsetRows(rows), spec).(*p2h.Dynamic)
	for i := 0; i < n; i += 20 {
		ix.Insert(set.data.Row(i))
		rows = append(rows, int32(i))
	}
	payloads := make([]p2h.PointAttrs, len(rows))
	for h, row := range rows {
		payloads[h] = points[row]
	}
	if err := p2h.AttachAttributes(ix, payloads); err != nil {
		t.Fatal(err)
	}
	for h := n; h < len(rows); h++ {
		if !ix.Delete(int32(h)) {
			t.Fatalf("Delete(%d) = false", h)
		}
	}
	// Every dead row still pending: no fold has dropped a tombstone or a
	// dead delta row.
	if ix.N() != n || ix.Pending() != len(rows)-n {
		t.Fatalf("churned index: %d live and %d pending, want %d and %d", ix.N(), ix.Pending(), n, len(rows)-n)
	}
	return ix
}

// saveInPlace records ix's budgeted answers to the shapes in r.presaved, then
// saves ix with SaveFile, which leaves it serving from the file it wrote, and
// returns it.
func saveInPlace(t *testing.T, ix p2h.Index, shapes []oracleShape, queries *p2h.Matrix, r *builtRow) p2h.Index {
	t.Helper()
	r.presaved = map[string][][]p2h.Result{}
	for _, sh := range shapes {
		if sh.opts.Budget > 0 {
			r.presaved[sh.name] = searchEach(ix, queries, sh.opts)
		}
	}
	if err := p2h.SaveFile(filepath.Join(t.TempDir(), "saved.p2h"), ix); err != nil {
		t.Fatal(err)
	}
	return ix
}

// saveAndRestore returns a copy of ix through the container: Save→Load off a
// stream, or SaveFile→Open from a file, which decodes in place where it can.
// SaveFile also leaves ix itself serving from the file.
func saveAndRestore(t *testing.T, ix p2h.Index, viaFile bool) p2h.Index {
	t.Helper()
	var out p2h.Index
	var err error
	if viaFile {
		path := filepath.Join(t.TempDir(), "ix.p2h")
		if err = p2h.SaveFile(path, ix); err == nil {
			out, err = p2h.Open(path)
		}
	} else {
		var buf bytes.Buffer
		if err = p2h.Save(&buf, ix); err == nil {
			out, err = p2h.Load(&buf)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkCell holds one row's answers to one shape to the cell's contract.
func checkCell(t *testing.T, r *builtRow, sh oracleShape, want [][]p2h.Result) {
	opts, queries, n := sh.opts, r.set.queries, int64(r.set.data.N)
	// FH rounds each norm partition's budget share up, by up to one candidate
	// per partition the API does not expose: unchecked.
	bounded := opts.Budget > 0 && r.spec.Kind != p2h.KindFH
	seq := make([][]p2h.Result, queries.N)
	for qi := range seq {
		var st p2h.Stats
		seq[qi], st = r.ix.Search(queries.Row(qi), opts)
		budget := int64(opts.Budget) + int64(r.spec.Shards)
		if st.Candidates > n || st.IPCount < st.Candidates || (bounded && st.Candidates > budget) {
			t.Fatalf("query %d: counters %+v (n %d, budget %d)", qi, st, n, opts.Budget)
		}
	}
	ref := want
	if opts.Budget > 0 {
		ref = seq
		if opts.Pred != nil {
			requireSame(t, "Pred as a Filter", searchEach(r.ix, queries, asFilter(opts, r.points)), ref)
		}
		if r.plain != nil {
			requireSame(t, "plain twin", searchEach(r.plain, queries, opts), ref)
		}
	} else {
		requireSame(t, "Search", seq, ref)
	}
	for _, path := range sh.paths {
		switch path {
		case viaIndexBatch:
			got, stats := r.ix.SearchBatch(queries, opts)
			if len(stats) != queries.N {
				t.Fatalf("%s: %d stats for %d queries", path, len(stats), queries.N)
			}
			requireSame(t, path, got, ref)
		case viaServer:
			checkServer(t, r.srv, queries, opts, ref)
		case viaRebuilt, viaLoaded, viaOpened:
			if twin := r.twins[path]; twin != nil {
				requireSame(t, path, searchEach(twin, queries, opts), ref)
			}
		case viaSaved:
			// Exact: the scan. Budgeted: the same index's answers before
			// the save.
			if twin := r.twins[path]; twin != nil {
				saved := ref
				if opts.Budget > 0 {
					saved = r.presaved[sh.name]
				}
				requireSame(t, path, searchEach(twin, queries, opts), saved)
			}
		default:
			workers, err := strconv.Atoi(strings.TrimPrefix(path, "SearchBatch/"))
			if err != nil {
				t.Fatalf("unknown path %q", path)
			}
			requireSame(t, path, p2h.SearchBatch(r.ix, queries, opts, workers), ref)
		}
	}
}

// checkServer: the server's first pass fills its cache; the second answers
// every shape without a Filter from it, one query at a time and as a batch.
func checkServer(t *testing.T, srv *p2h.Server, queries *p2h.Matrix, opts p2h.SearchOptions, ref [][]p2h.Result) {
	t.Helper()
	rows := make([][]float32, queries.N)
	for qi := range rows {
		rows[qi] = queries.Row(qi)
	}
	got, _, err := srv.SearchBatchCtx(context.Background(), rows, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, "Server.SearchBatchCtx", got, ref)
	hits := srv.Stats().CacheHits
	for qi, q := range rows {
		got[qi], _ = srv.Search(q, opts)
	}
	requireSame(t, "cached Server.Search", got, ref)
	if got, _, err = srv.SearchBatchCtx(context.Background(), rows, opts); err != nil {
		t.Fatal(err)
	}
	requireSame(t, "cached Server.SearchBatchCtx", got, ref)
	if hits = srv.Stats().CacheHits - hits; opts.Filter == nil && hits != int64(2*len(rows)) {
		t.Fatalf("second server pass: %d cache hits of %d", hits, 2*len(rows))
	}
}

// bruteForce is the matrix's exact reference over the lifted rows: for every
// query, made the unit-normal hyperplane every index answers for it,
// |<q, x>| through the float64 vec.Dot for every row opts.Filter admits,
// ordered by core.SortResults and cut at k. It shares no code with what the
// indexes run — no blocked kernel, no float32 screen, no collector — so a
// fault in any of those fails a cell instead of agreeing with itself.
func bruteForce(lifted, queries *p2h.Matrix, opts p2h.SearchOptions) [][]p2h.Result {
	k := opts.Normalized().K
	out := make([][]p2h.Result, queries.N)
	for qi := range out {
		q := p2h.CanonicalQuery(queries.Row(qi), lifted.D-1)
		var all []p2h.Result
		for i := 0; i < lifted.N; i++ {
			if opts.Filter == nil || opts.Filter(int32(i)) {
				all = append(all, p2h.Result{ID: int32(i), Dist: math.Abs(vec.Dot(q, lifted.Row(i)))})
			}
		}
		core.SortResults(all)
		out[qi] = all[:min(k, len(all))]
	}
	return out
}

// searchEach answers every query through ix.Search.
func searchEach(ix p2h.Index, queries *p2h.Matrix, opts p2h.SearchOptions) [][]p2h.Result {
	out := make([][]p2h.Result, queries.N)
	for qi := range out {
		out[qi], _ = ix.Search(queries.Row(qi), opts)
	}
	return out
}

func requireSame(t *testing.T, path string, got, want [][]p2h.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers for %d queries", path, len(got), len(want))
	}
	for qi := range want {
		if !slices.Equal(got[qi], want[qi]) {
			t.Fatalf("%s, query %d:\n got %v\nwant %v", path, qi, got[qi], want[qi])
		}
	}
}

func requireIdentical(t *testing.T, label string, got, want []p2h.Result) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s:\n got %v\nwant %v", label, got, want)
	}
}

func TestOracleMatrix(t *testing.T) {
	for _, kind := range p2h.Kinds() {
		if !slices.ContainsFunc(oracleKinds, func(r oracleKind) bool { return r.name == kind && r.spec.Kind == kind }) {
			t.Fatalf("kind %s has no row of its name in oracleKinds", kind)
		}
	}
	oracleView{shapes: oracleShapes}.run(t)
}

// The named slices. kindRows is one plain row per kind (p2h.Kinds()) and the
// alias row; the rows that set the ignored Spec.Quantize run under their
// kind's name.
var (
	kindRows    = append(p2h.Kinds(), "quantizedscan")
	quantRows   = []string{"balltree=balltree-quant", "bctree=bctree-quant", "sharded=sharded-quant"}
	familySets  = []string{"Sift", "GloVe", "Music", "Enron"}
	gateSets    = []string{"Sift", "Cifar-10"}
	exactK10    = fixedShapes(oracleShape{opts: p2h.SearchOptions{K: 10}})
	exactK5     = fixedShapes(oracleShape{opts: p2h.SearchOptions{K: 5}})
	keepNotMod3 = func(id int32) bool { return id%3 != 0 } // the matrix's Filter
	acceptAll   = func(int32) bool { return true }
)

// fixedShapes is a fixed shape list, whatever the set's size.
func fixedShapes(list ...oracleShape) func(int) []oracleShape {
	return func(int) []oracleShape { return list }
}

// predShapes runs the predicate sweep at K = 10 under each suffix's shape.
func predShapes(each func(n int, opts p2h.SearchOptions) []oracleShape) func(int) []oracleShape {
	return func(n int) (out []oracleShape) {
		for _, p := range equivPreds {
			for _, sh := range each(n, p2h.SearchOptions{K: 10, Pred: p.pred}) {
				sh.name = strings.TrimSuffix(p.name+"/"+sh.name, "/")
				out = append(out, sh)
			}
		}
		return out
	}
}

// tieShapes: k of 1, 3, 5 and 10 on the tie sets, plain, with a Filter and
// with a Pred, through Search and SearchBatch on one worker.
func tieShapes(int) (out []oracleShape) {
	for _, k := range []int{1, 3, 5, 10} {
		name := "k" + strconv.Itoa(k)
		out = append(out,
			oracleShape{name: name, opts: p2h.SearchOptions{K: k}, paths: []string{viaSearchBatch(1)}},
			oracleShape{name: name + "-filter", opts: p2h.SearchOptions{K: k, Filter: keepNotMod3}, paths: []string{viaSearchBatch(1)}},
			oracleShape{name: name + "-pred", opts: p2h.SearchOptions{K: k, Pred: p2h.TagIs("even")}, paths: []string{viaSearchBatch(1)}})
	}
	return out
}

// TestPredEquivalence: the predicate sweep on one row per kind, at K = 10,
// at k > n and under a budget, through Search — the soundness gate for the
// per-node summaries' subtree pushdown.
func TestPredEquivalence(t *testing.T) {
	oracleView{sets: []string{"Cifar-10"}, rows: kindRows, shapes: predShapes(func(n int, opts p2h.SearchOptions) []oracleShape {
		big, budgeted := opts, opts
		big.K, budgeted.Budget = n+3, max(n/20, 1)
		return []oracleShape{{name: "exact", opts: opts}, {name: "kBig", opts: big}, {name: "budget", opts: budgeted}}
	})}.run(t)
}

// TestPredEquivalenceQuantized: the predicate sweep on the trees whose spec
// sets the ignored Quantize field.
func TestPredEquivalenceQuantized(t *testing.T) {
	oracleView{sets: []string{"Cifar-10"}, rows: quantRows, shapes: predShapes(func(_ int, opts p2h.SearchOptions) []oracleShape {
		return []oracleShape{{opts: opts}}
	})}.run(t)
}

// TestPredEquivalenceBatched: the predicate sweep through SearchBatch on one
// and four workers.
func TestPredEquivalenceBatched(t *testing.T) {
	oracleView{sets: []string{"Cifar-10"}, rows: kindRows, shapes: predShapes(func(_ int, opts p2h.SearchOptions) []oracleShape {
		return []oracleShape{{name: "w1", opts: opts, paths: []string{viaSearchBatch(1)}}, {name: "w4", opts: opts, paths: []string{viaSearchBatch(4)}}}
	})}.run(t)
}

// TestPredWithUserFilter: a Pred with a caller's Filter is the one closure
// testing both.
func TestPredWithUserFilter(t *testing.T) {
	oracleView{sets: []string{"Cifar-10"}, rows: kindRows, shapes: fixedShapes(oracleShape{opts: p2h.SearchOptions{
		K: 10, Pred: p2h.TagIs("warm"), Filter: func(id int32) bool { return id%3 == 0 }}})}.run(t)
}

// TestQuantizedEquivalence: the trees whose spec sets the ignored Quantize
// field on every option shape, against the scan when exact and against the
// twin without the field under a budget.
func TestQuantizedEquivalence(t *testing.T) {
	oracleView{sets: []string{"Cifar-10"}, rows: quantRows, shapes: func(n int) []oracleShape {
		return []oracleShape{
			{name: "exact", opts: p2h.SearchOptions{K: 10}},
			{name: "k1", opts: p2h.SearchOptions{K: 1}},
			{name: "kBig", opts: p2h.SearchOptions{K: n + 3}},
			{name: "budget", opts: p2h.SearchOptions{K: 10, Budget: max(n/20, 1)}},
			{name: "filtered", opts: p2h.SearchOptions{K: 10, Filter: func(id int32) bool { return id%2 == 0 }}},
			{name: "ablated", opts: p2h.SearchOptions{K: 10, Filter: acceptAll}}, // the prefix verified whole
		}
	}}.run(t)
}

// TestQuantizedEquivalenceBatched: the trees whose spec sets the ignored
// Quantize field, through SearchBatch.
func TestQuantizedEquivalenceBatched(t *testing.T) {
	oracleView{sets: []string{"Cifar-10"}, rows: quantRows,
		shapes: fixedShapes(oracleShape{opts: p2h.SearchOptions{K: 10}, paths: []string{viaSearchBatch(2)}})}.run(t)
}

// TestSearchBatchMatchesSequential: the batch surfaces — p2h.SearchBatch on
// one and three workers, and the index's own SearchBatch — exact (filtered
// too, which the trees' walk and the scan's one pass share), budgeted and at
// k > n.
func TestSearchBatchMatchesSequential(t *testing.T) {
	batched := []string{viaSearchBatch(1), viaSearchBatch(3), viaIndexBatch}
	oracleView{sets: []string{"Cifar-10"}, rows: []string{"balltree", "bctree", "dynamic", "linearscan", "sharded"},
		shapes: func(n int) []oracleShape {
			return []oracleShape{
				{name: "exact-k1", opts: p2h.SearchOptions{K: 1}, paths: batched},
				{name: "exact-k10", opts: p2h.SearchOptions{K: 10}, paths: batched},
				{name: "exact-kBig", opts: p2h.SearchOptions{K: n + 10}, paths: batched},
				{name: "budget", opts: p2h.SearchOptions{K: 10, Budget: max(n/20, 1)}, paths: batched},
				{name: "filtered", opts: p2h.SearchOptions{K: 10, Filter: func(id int32) bool { return id%5 != 0 }}, paths: batched},
			}
		}}.run(t)
}

// TestShardedExactMatchesScan: sharded at 1, 4 and 8 shards.
func TestShardedExactMatchesScan(t *testing.T) {
	oracleView{sets: []string{"Sift"}, rows: []string{"sharded-1", "sharded", "sharded-8"}, shapes: exactK5}.run(t)
}

// TestAllIndexesExactWithFullBudget: every row, exact, through Search.
func TestAllIndexesExactWithFullBudget(t *testing.T) {
	oracleView{sets: []string{"Sift"}, shapes: exactK5}.run(t)
}

// TestServerMatchesDirectSearchAllIndexes: every row through a Server, cold
// and from the cache.
func TestServerMatchesDirectSearchAllIndexes(t *testing.T) {
	oracleView{sets: []string{"Sift"}, shapes: fixedShapes(oracleShape{opts: p2h.SearchOptions{K: 5}, paths: []string{viaServer}})}.run(t)
}

// TestRecallGateExactIndexes: every row, exact, on a clustered and a
// high-dimensional set.
func TestRecallGateExactIndexes(t *testing.T) {
	oracleView{sets: gateSets, shapes: exactK10}.run(t)
}

// TestRecallGateFiltered: every row under three declarative predicates, so an
// unsound per-node summary (one that prunes a subtree holding a match) shows.
func TestRecallGateFiltered(t *testing.T) {
	oracleView{sets: gateSets, shapes: fixedShapes(
		oracleShape{name: "warm", opts: p2h.SearchOptions{K: 10, Pred: p2h.TagIs("warm")}},
		oracleShape{name: "score", opts: p2h.SearchOptions{K: 10, Pred: p2h.FieldBetween("score", 0.2, 0.4)}},
		oracleShape{name: "warm+score", opts: p2h.SearchOptions{K: 10, Pred: p2h.AllOf(p2h.TagIs("warm"), p2h.FieldAtLeast("score", 0.3))}},
	)}.run(t)
}

// TestRecallGateBatchedPath: every row, exact, through SearchBatch.
func TestRecallGateBatchedPath(t *testing.T) {
	oracleView{sets: gateSets, shapes: fixedShapes(oracleShape{opts: p2h.SearchOptions{K: 10}, paths: []string{viaSearchBatch(2)}})}.run(t)
}

// TestExactIndexesBreakTiesByID: every row on the tie sets — ids and their
// order, not only distances, must be the brute-force reference's.
func TestExactIndexesBreakTiesByID(t *testing.T) {
	oracleView{sets: []string{"ties-1", "ties-2", "ties-3"}, shapes: tieShapes}.run(t)
}

// TestShardedBreaksTiesByGlobalID: the sharded rows on twenty tie sets. A
// shard tree once reported shard-local ids, so a tie at the k-th distance was
// cut by position in the shard.
func TestShardedBreaksTiesByGlobalID(t *testing.T) {
	var sets []string
	for seed := 1; seed <= 20; seed++ {
		sets = append(sets, fmt.Sprintf("ties-%d", seed))
	}
	oracleView{sets: sets, rows: []string{"sharded-1", "sharded", "sharded-8", "sharded-quant"}, shapes: tieShapes}.run(t)
}

// TestIntegrationAllIndexesAllFamiliesExact: every row exact on four
// generator families at three k.
func TestIntegrationAllIndexesAllFamiliesExact(t *testing.T) {
	oracleView{sets: familySets, shapes: fixedShapes(
		oracleShape{name: "k1", opts: p2h.SearchOptions{K: 1}},
		oracleShape{name: "k7", opts: p2h.SearchOptions{K: 7}},
		oracleShape{name: "k25", opts: p2h.SearchOptions{K: 25}},
	)}.run(t)
}

// TestIntegrationSerializedTreesAgree: Save→Load keeps every persistable
// row's answers, across families.
func TestIntegrationSerializedTreesAgree(t *testing.T) {
	oracleView{sets: familySets, shapes: fixedShapes(oracleShape{opts: p2h.SearchOptions{K: 5}, paths: []string{viaLoaded}})}.run(t)
}

// TestIntegrationLowDimensions: every row at d = 1 and d = 2, where
// degenerate geometry (collinear points, zero rejections) is the norm.
func TestIntegrationLowDimensions(t *testing.T) {
	oracleView{sets: []string{"grid-d1", "grid-d2"}, shapes: fixedShapes(oracleShape{opts: p2h.SearchOptions{K: 3}})}.run(t)
}

// TestIntegrationIdenticalPoints: 100 copies of one point build and search on
// every row; the plane x₁ = 0 finds five of them at distance 1.
func TestIntegrationIdenticalPoints(t *testing.T) {
	set := oracleSetNamed(t, "identical")
	res, _ := p2h.NewLinearScan(set.data).Search(set.queries.Row(0), p2h.SearchOptions{K: 5})
	if len(res) != 5 || slices.ContainsFunc(res, func(r p2h.Result) bool { return math.Abs(r.Dist-1) > 1e-6 }) {
		t.Fatalf("plane x₁ = 0 over (1, 2, 3): %v, want five results at distance 1", res)
	}
	oracleView{sets: []string{"identical"}, shapes: exactK5}.run(t)
}

// TestIntegrationHyperplaneThroughPoint: the plane through row 123, a Sift
// query, is answered with that point at distance ~0 on every row.
func TestIntegrationHyperplaneThroughPoint(t *testing.T) {
	set := oracleSetNamed(t, "Sift")
	res, _ := p2h.NewLinearScan(set.data).Search(set.queries.Row(9), p2h.SearchOptions{K: 1})
	if len(res) != 1 || res[0].Dist > 1e-5 {
		t.Fatalf("plane through row 123: nearest %v, want distance ~0", res)
	}
	oracleView{sets: []string{"Sift"}, shapes: fixedShapes(oracleShape{opts: p2h.SearchOptions{K: 1}})}.run(t)
}

// TestIntegrationStatsConsistency: Candidates ≤ n and IPCount ≥ Candidates on
// every row — the counters every cell checks.
func TestIntegrationStatsConsistency(t *testing.T) {
	oracleView{sets: []string{"GloVe"}, shapes: exactK5}.run(t)
}

// TestIntegrationDeterministicEndToEnd: a second New from the same Spec
// answers a budgeted batch like the first, on every row.
func TestIntegrationDeterministicEndToEnd(t *testing.T) {
	oracleView{sets: []string{"Music"}, shapes: fixedShapes(oracleShape{opts: p2h.SearchOptions{K: 5, Budget: 100}, paths: []string{viaRebuilt}})}.run(t)
}

// TestIntegrationFilterConsistency: with a Filter keeping even ids, every row
// returns exactly the filtered scan's answer.
func TestIntegrationFilterConsistency(t *testing.T) {
	oracleView{sets: []string{"Sift"}, shapes: fixedShapes(oracleShape{opts: p2h.SearchOptions{K: 5, Filter: func(id int32) bool { return id%2 == 0 }}})}.run(t)
}
