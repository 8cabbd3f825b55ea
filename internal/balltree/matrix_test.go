package balltree

// The oracle matrix, this package's one equivalence harness: every row of
// matrixRows (a kind, over the set's pivot seed or the next one) answers
// every set of matrixSets × shape through Search and the paths the shape
// names, each answer held to its cell's contract:
//
//   - exact (no budget, or one of n or more): bitwise the brute-force
//     reference's answer (bruteForce: the float64 vec.Dot on every admitted
//     row, the k least (Dist, ID) kept by insertion) — ids, distances, the
//     order of ties — with
//     a Pred, a liveness bitmap and a Filter folded into one Filter closure,
//     the Pred evaluated by attr.Pred.Matches;
//   - budgeted: bitwise the tree's own Search, a Pred its Filter closure with
//     as many candidates;
//   - cancelled at once: no answer and no work;
//   - always: (Dist, ID) order, each Dist |<q, x>| of its id, min(k,
//     Candidates) of them, Candidates within n and the budget, IPCount at
//     least Candidates and a node visited;
//   - every path answers as Search does, and where it runs Search's walk — a
//     batch of one, a Save→Load copy, a tree serving its mapped twin's
//     sections, BuildOwned — counts as Search does; a twin's batch counts as
//     the tree's, a batch of several rows as the same rows copied out
//     without a profile; a profiled path records phase time of its own.
//
// TestTreeOracleMatrix runs all of it. The tests after it are named slices of
// the same matrix, some with a check beside the contract: of counters, or of
// properties that span cells.

import (
	"bytes"
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"p2h/internal/attr"
	"p2h/internal/core"
	"p2h/internal/dataset"
	"p2h/internal/vec"
)

type matrixRow struct {
	name   string
	kind   Kind
	reseed bool // build over the set's seed + 1, a second tree shape: this one column
}

// The reseeded rows keep the names the 8-bit leaf mirror's column had, so
// their test ids stay stable now that the mirror is gone.
var matrixRows = []matrixRow{{"balltree", Ball, false}, {"balltree-quant", Ball, true}, {"bctree", BC, false}, {"bctree-quant", BC, true}}

// matrixSet is a value of the data axis: lifted data, unit-normal queries,
// the trees' leaf size and seed, and per row an attribute x0, its first
// coordinate, under a predicate that follows space, so summaries can skip.
type matrixSet struct {
	name          string
	data, queries *vec.Matrix
	leafSize      int
	seed          int64
	points        []attr.Point
	store         *attr.Store
	pred          *attr.Pred
	scans         *sync.Map // scanKey → the scan's answers, computed once and shared by every row
}

// scanKey names a scan's answer to options without a Filter.
type scanKey struct {
	k, queries int
	pred       *attr.Pred
}

func newSet(name string, data, queries *vec.Matrix, leafSize int, seed int64) matrixSet {
	normalizeRows(queries)
	s := matrixSet{name: name, data: data, queries: queries, leafSize: leafSize, seed: seed, points: make([]attr.Point, data.N), scans: &sync.Map{}}
	var mean float64
	for i := range s.points {
		s.points[i].Floats = map[string]float64{"x0": float64(data.Row(i)[0])}
		mean += float64(data.Row(i)[0]) / float64(data.N)
	}
	var err error
	if s.store, err = attr.Build(s.points); err != nil {
		panic(err)
	}
	s.pred = attr.FieldAtLeast("x0", mean)
	return s
}

// matrixSets: the five generator families; single-point leaves; copies of
// points, tied at every hyperplane, split across leaves of two; 64 identical
// points; and lowDimCases at a size the whole matrix affords. Made once and
// only read.
var matrixSets = sync.OnceValue(func() (sets []matrixSet) {
	gen := func(name string, spec dataset.Spec, n, nq, leafSize int, seed int64) {
		raw := dataset.Dedup(dataset.Generate(spec, n, seed))
		sets = append(sets, newSet(name, raw.AppendOnes(), dataset.GenerateQueries(raw, nq, seed+1), leafSize, seed))
	}
	for i, f := range []dataset.Family{dataset.FamilyClustered, dataset.FamilyUniform, dataset.FamilyHeavyTail, dataset.FamilyLowRank, dataset.FamilySparse} {
		gen(f.String(), dataset.Spec{Name: "t", Family: f, RawDim: 16, Clusters: 8}, 700, 24, 24, int64(10*i+1))
	}
	gen("single-point leaves", dataset.Spec{Name: "t", Family: dataset.FamilyUniform, RawDim: 10}, 400, 20, 1, 10)
	base := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 4, Clusters: 4}, 200, 5)
	copies := make([]int32, 3*base.N)
	for i := range copies {
		copies[i] = int32(i % base.N)
	}
	rand.New(rand.NewSource(5)).Shuffle(len(copies), func(i, j int) { copies[i], copies[j] = copies[j], copies[i] })
	sets = append(sets, newSet("duplicates", base.SubsetRows(copies).AppendOnes(), dataset.GenerateQueries(base, 12, 6), 2, 7))
	same := vec.NewMatrix(64, 4)
	for i := 0; i < same.N; i++ {
		copy(same.Row(i), []float32{1, 2, 3, 1})
	}
	sets = append(sets, newSet("identical", same, vec.FromRows([][]float32{
		{1, 0, 0, 0}, {0, 1, 0, -2}, {1, 1, 1, 0}, {-1, 0.5, 0, 0.3}, {0, 0, -2, 1}}), 4, 1))
	return append(sets, lowDimSets(1500, 8)...)
})

func setsNamed(names ...string) (out []matrixSet) {
	for _, name := range names {
		out = append(out, matrixSets()[slices.IndexFunc(matrixSets(), func(s matrixSet) bool { return s.name == name })])
	}
	return out
}

// lowDimSets is lowDimCases at n points and nq queries each.
func lowDimSets(n, nq int) (sets []matrixSet) {
	for _, c := range lowDimCases {
		data, queries := c.generate(n, nq)
		sets = append(sets, newSet(c.name, data, queries, c.leafSize, c.seed))
	}
	return sets
}

// The paths besides Search: SearchLive with the shape's bitmap or one keeping
// every row; SearchBatch on batches of nq rows; one Searcher reused query
// after query; and the twins (builtRow.twin).
const (
	viaLive     = "SearchLive"
	viaSearcher = "Searcher"
	viaLoaded   = "loaded"
	viaAdopted  = "adopted"
	viaOwned    = "owned"
)

func viaBatch(nq int) string { return "SearchBatch/" + strconv.Itoa(nq) }

var (
	batchPaths = []string{viaBatch(1), viaBatch(3), viaBatch(64)}
	allPaths   = []string{viaLive, viaLoaded, viaAdopted, viaOwned, viaBatch(1), viaBatch(3)}
)

// matrixShape is one option shape and the paths it takes besides Search; a
// live shape searches the rows liveRows keeps, and check runs after the
// contract. Consecutive shapes of one name are one subtest, of no name none.
type matrixShape struct {
	name  string
	opts  core.SearchOptions
	live  bool
	paths []string
	check func(t *testing.T, c *cell)
}

var (
	keepNotMod3 = func(id int32) bool { return id%3 != 0 }
	acceptAll   = func(int32) bool { return true }
	cancelNow   = func() bool { return true }
)

// matrixShapes: k of 1, 10 and n+3; the Figure 8 variants; both preferences;
// a Filter, one accepting all (the prefix verified whole), a Pred, a
// bitmap; a profile; a Cancel that never fires and one that fires at once;
// budgets of 1, n/20 and n, the middle one beside a preference, a Filter, a
// Pred and a bitmap. Batches of 64 rows, 16 tiles, go through the walks a
// batch can take — tiled, filtered, predicated — and profiled; a budgeted
// batch runs its queries one by one.
func matrixShapes(s *matrixSet) []matrixShape {
	n, b := s.data.N, max(s.data.N/20, 1)
	shapes := []matrixShape{
		{name: "k1", opts: core.SearchOptions{K: 1}},
		{name: "k10", opts: core.SearchOptions{K: 10}},
		{name: "kBig", opts: core.SearchOptions{K: n + 3}},
		{name: "wo-ball", opts: core.SearchOptions{K: 10, DisablePointBall: true}},
		{name: "wo-cone", opts: core.SearchOptions{K: 10, DisablePointCone: true}},
		{name: "wo-bc", opts: core.SearchOptions{K: 10, DisablePointBall: true, DisablePointCone: true}},
		{name: "lowerbound", opts: core.SearchOptions{K: 10, Preference: core.PrefLowerBound}},
		{name: "filter", opts: core.SearchOptions{K: 10, Filter: keepNotMod3}},
		{name: "accept-all", opts: core.SearchOptions{K: 10, Filter: acceptAll}},
		{name: "pred", opts: core.SearchOptions{K: 10, Pred: s.pred}},
		{name: "live", opts: core.SearchOptions{K: 10}, live: true},
		{name: "profiled", opts: core.SearchOptions{K: 10, Profile: &core.Profile{}}},
		{name: "cancel-never", opts: core.SearchOptions{K: 10, Cancel: func() bool { return false }}},
		{name: "cancel", opts: core.SearchOptions{K: 10, Cancel: cancelNow}},
		{name: "budget-1", opts: core.SearchOptions{K: 10, Budget: 1}},
		{name: "budget", opts: core.SearchOptions{K: 10, Budget: b}},
		{name: "budget-n", opts: core.SearchOptions{K: 10, Budget: n}},
		{name: "budget+lowerbound", opts: core.SearchOptions{K: 10, Budget: b, Preference: core.PrefLowerBound}},
		{name: "budget+filter", opts: core.SearchOptions{K: 10, Budget: b, Filter: keepNotMod3}},
		{name: "budget+pred", opts: core.SearchOptions{K: 10, Budget: b, Pred: s.pred}},
		{name: "budget+live", opts: core.SearchOptions{K: 10, Budget: b}, live: true},
	}
	for i, sh := range shapes {
		shapes[i].paths = allPaths
		if sh.name == "k10" || sh.name == "filter" || sh.name == "pred" || sh.name == "profiled" {
			shapes[i].paths = slices.Concat(allPaths, []string{viaBatch(64)})
		}
	}
	return shapes
}

// matrixView is a slice of the matrix: rows over sets (nil: all), each
// set's shapes through Search and their paths, on at most queries queries of
// each set (0: all). A row written "shown=row" runs under the name shown.
// Subtests are row/set/shape, with a set level only for several sets.
type matrixView struct {
	rows    []string
	sets    []matrixSet
	shapes  func(s *matrixSet) []matrixShape
	queries int
}

func (v matrixView) run(t *testing.T) {
	t.Parallel()
	if v.rows == nil {
		for _, r := range matrixRows {
			v.rows = append(v.rows, r.name)
		}
	}
	if v.sets == nil {
		v.sets = matrixSets()
	}
	v.sets = slices.Clone(v.sets)
	for i, s := range v.sets {
		if v.queries > 0 && s.queries.N > v.queries {
			v.sets[i].queries = &vec.Matrix{Data: s.queries.Data[:v.queries*s.queries.D], N: v.queries, D: s.queries.D}
		}
	}
	for _, name := range v.rows {
		shown, name, ok := strings.Cut(name, "=")
		if !ok {
			name = shown
		}
		row := matrixRows[slices.IndexFunc(matrixRows, func(r matrixRow) bool { return r.name == name })]
		t.Run(shown, func(t *testing.T) {
			t.Parallel()
			for i := range v.sets {
				if len(v.sets) == 1 {
					v.runCells(t, row, &v.sets[i])
				} else {
					t.Run(v.sets[i].name, func(t *testing.T) { v.runCells(t, row, &v.sets[i]) })
				}
			}
		})
	}
}

func (v matrixView) runCells(t *testing.T, row matrixRow, set *matrixSet) {
	shapes, r := v.shapes(set), buildRow(t, row, set)
	for i := 0; i < len(shapes); {
		j := i + 1
		for j < len(shapes) && shapes[j].name == shapes[i].name {
			j++
		}
		group := func(t *testing.T) {
			for _, sh := range shapes[i:j] {
				checkCell(t, r, sh)
			}
		}
		if shapes[i].name == "" {
			group(t)
		} else {
			t.Run(shapes[i].name, group)
		}
		i = j
	}
}

// builtRow is one row built over one set, attributes attached, with what its
// paths search besides.
type builtRow struct {
	row       matrixRow
	set       *matrixSet
	tree      *Tree
	twins     map[string]*Tree // by path, built when first asked for
	rowOf     []int32          // the row of each of the owned twin's labels
	live, all core.Bitmap      // liveRows(tree), and every row
}

func buildRow(t *testing.T, row matrixRow, set *matrixSet) *builtRow {
	r := &builtRow{row: row, set: set, twins: map[string]*Tree{}, all: make(core.Bitmap, core.BitmapWords(set.data.N))}
	r.tree = r.attach(t, Build(set.data, row.kind, r.config()), set.store)
	for i := range r.all {
		r.all[i] = math.MaxUint64
	}
	r.live = liveRows(r.tree)
	return r
}

func (r *builtRow) config() Config {
	cfg := Config{LeafSize: r.set.leafSize, Seed: r.set.seed}
	if r.row.reseed {
		cfg.Seed++
	}
	return cfg
}

func (r *builtRow) attach(t *testing.T, tree *Tree, store *attr.Store) *Tree {
	if err := tree.AttachAttrs(store); err != nil {
		t.Fatal(err)
	}
	return tree
}

// twin is the tree a twin path searches: a Save→Load copy off a stream; a
// second Build that has adopted its mapped twin's sections and sizes itself
// as before; or BuildOwned over a copy of the data under labels drawn at
// random from [0, 3n) — so ties order otherwise over labels than over rows —
// its attributes indexed by label.
func (r *builtRow) twin(t *testing.T, path string) *Tree {
	if tw := r.twins[path]; tw != nil {
		return tw
	}
	var tw *Tree
	var err error
	store := r.set.store
	switch path {
	case viaLoaded:
		var buf bytes.Buffer
		if err = r.tree.Save(&buf); err == nil {
			tw, err = Load(&buf, r.row.kind, 0)
		}
		if err != nil {
			t.Fatalf("Save→Load: %v", err)
		}
	case viaAdopted:
		tw = Build(r.set.data, r.row.kind, r.config())
		size, mapped := tw.IndexBytes(), mappedTwin(t, tw)
		if !tw.Adopt(mapped) || tw.sec() != mapped.sec() || tw.IndexBytes() != size {
			t.Fatal("the tree did not adopt its mapped twin's sections, or sized itself anew")
		}
	case viaOwned:
		n := r.set.data.N
		labels, byLabel := make([]int32, n), make([]attr.Point, 3*n)
		r.rowOf = make([]int32, 3*n)
		for row, label := range rand.New(rand.NewSource(r.set.seed)).Perm(3 * n)[:n] {
			labels[row], r.rowOf[label], byLabel[label] = int32(label), int32(row), r.set.points[row]
		}
		tw = BuildOwned(r.set.data.Clone(), labels, r.row.kind, r.config())
		points, ids := tw.Rows()
		_, rows := r.tree.Rows()
		for p, label := range ids {
			if label != labels[rows[p]] || !slices.Equal(points.Row(p), r.set.data.Row(int(rows[p]))) {
				t.Fatalf("position %d holds label %d, not the label of row %d and its vector", p, label, rows[p])
			}
		}
		if store, err = attr.Build(byLabel); err != nil {
			t.Fatal(err)
		}
	}
	r.twins[path] = r.attach(t, tw, store)
	return tw
}

// liveRows is the bitmap of a tree's live shapes: of its leaves in arena
// order every third is wholly dead, the next untouched, and the one after
// keeps the rows at positions not divisible by three.
func liveRows(tree *Tree) core.Bitmap {
	live, leaves := make(core.Bitmap, core.BitmapWords(tree.N())), 0
	for i := range tree.nodes {
		if n := &tree.nodes[i]; n.isLeaf() {
			leaves++
			for pos := n.start; pos < n.end; pos++ {
				if leaves%3 == 1 || leaves%3 == 2 && pos%3 != 0 {
					live.Set(tree.sec().ids[pos])
				}
			}
		}
	}
	return live
}

// asFilter folds opts.Pred into opts.Filter as a closure over Pred.Matches.
func asFilter(opts core.SearchOptions, points []attr.Point) core.SearchOptions {
	if pred, filter := opts.Pred, opts.Filter; pred != nil {
		opts.Pred, opts.Filter = nil, func(id int32) bool { return pred.Matches(points[id]) && (filter == nil || filter(id)) }
	}
	return opts
}

// bruteForce is the matrix's exact reference: for every query, |<q, x>|
// through the float64 vec.Dot for every row opts.Filter admits, the k least
// in (Dist, ID) order kept by insertion into a sorted slice. It shares no code
// with what the tree and the linear scan run — no blocked kernel, no float32
// screen, no collector, not even core.SortResults — so a fault in any of those
// fails a cell instead of agreeing with itself.
func bruteForce(data, queries *vec.Matrix, opts core.SearchOptions) [][]core.Result {
	k := opts.Normalized().K
	out := make([][]core.Result, queries.N)
	for qi := range out {
		q := queries.Row(qi)
		best := make([]core.Result, 0, min(k, data.N))
		for i := 0; i < data.N; i++ {
			if opts.Filter != nil && !opts.Filter(int32(i)) {
				continue
			}
			r := core.Result{ID: int32(i), Dist: math.Abs(vec.Dot(q, data.Row(i)))}
			// Rows come in ascending id, so r goes after every equal Dist.
			at := len(best)
			for at > 0 && r.Dist < best[at-1].Dist {
				at--
			}
			if at == k {
				continue
			}
			if len(best) < k {
				best = append(best, r)
			}
			copy(best[at+1:], best[at:len(best)-1])
			best[at] = r
		}
		out[qi] = best
	}
	return out
}

// cell is one row's answers to one shape: the options Search ran with (a
// live shape's bitmap folded into its Filter), the shape's own options and
// the bitmap SearchLive takes beside them, Search's answers and counters,
// and the scan's answer to the same options without a budget.
type cell struct {
	r          *builtRow
	opts, user core.SearchOptions
	bitmap     core.Bitmap
	got        [][]core.Result
	stats      []core.Stats
	exact      [][]core.Result
}

func checkCell(t *testing.T, r *builtRow, sh matrixShape) {
	t.Helper()
	queries, n := r.set.queries, r.set.data.N
	c := &cell{r: r, opts: sh.opts, user: sh.opts, bitmap: r.all}
	if sh.live {
		live, user := r.live, sh.opts.Filter
		c.bitmap, c.opts.Filter = live, func(id int32) bool { return live.Has(id) && (user == nil || user(id)) }
	}
	scan := core.SearchOptions{K: c.opts.K, Filter: c.opts.Filter, Pred: c.opts.Pred}
	exact := func() [][]core.Result { return bruteForce(r.set.data, queries, asFilter(scan, r.set.points)) }
	if c.opts.Filter == nil {
		// One computation per key, however many rows ask for it at once.
		once, _ := r.set.scans.LoadOrStore(scanKey{c.opts.K, queries.N, c.opts.Pred}, sync.OnceValue(exact))
		exact = once.(func() [][]core.Result)
	}
	c.exact = exact()
	c.got, c.stats = searchEach(r.tree, queries, c.opts)
	c.requireValid(t, "Search", c.got, c.stats)
	switch {
	case c.opts.Canceled():
	case c.opts.Budget == 0 || c.opts.Budget >= n:
		requireSame(t, "Search", c.got, c.exact)
	default:
		if c.opts.Pred != nil {
			got, stats := searchEach(r.tree, queries, asFilter(c.opts, r.set.points))
			requireSame(t, "Pred as a Filter", got, c.got)
			for qi, st := range stats {
				if st.Candidates != c.stats[qi].Candidates {
					t.Fatalf("query %d: the Pred verified %d candidates, its Filter %d", qi, c.stats[qi].Candidates, st.Candidates)
				}
			}
		}
	}
	if p := c.opts.Profile; p != nil && p.Total() == 0 {
		t.Fatal("the profiled search recorded no phase time")
	}
	for _, path := range sh.paths {
		// Each path profiles into a profile of its own.
		pc := *c
		if c.opts.Profile != nil {
			pc.opts.Profile = &core.Profile{}
			pc.user.Profile = pc.opts.Profile
		}
		got, stats, counts := pc.along(t, path)
		if p := pc.opts.Profile; p != nil && p.Total() == 0 {
			t.Fatalf("%s recorded no phase time", path)
		}
		c.requireValid(t, path, got, stats)
		for i, res := range got {
			want, st := c.got[i%queries.N], c.stats[i%queries.N]
			if counts != nil {
				st = counts[i]
			}
			if !slices.Equal(res, want) && !(path == viaOwned && tiedAtLast(res, want)) {
				t.Fatalf("%s, row %d:\n got %v\nwant %v", path, i, res, want)
			}
			switch {
			case path == viaLive:
				if stats[i].Candidates != st.Candidates || stats[i].IPCount != st.IPCount {
					t.Fatalf("%s, query %d: %+v, the Filter closure's %+v", path, i, stats[i], st)
				}
			case stats[i] != st:
				t.Fatalf("%s, row %d: counters %+v, want %+v", path, i, stats[i], st)
			}
		}
	}
	if sh.check != nil {
		sh.check(t, c)
	}
}

// along answers the cell's queries through path: per query, or per batch row
// with row i asking query i mod N, an answer (over rows), its counters and
// the counters it must have (nil: Search's). A twin answers each query by
// Search and then all of them as one batch, which counts as the tree's own
// unprofiled batch does; a batch of several rows counts as the same rows
// copied out, unprofiled.
func (c *cell) along(t *testing.T, path string) (got [][]core.Result, stats, counts []core.Stats) {
	r, queries, ref := c.r, c.r.set.queries, c.opts
	ref.Profile = nil // a profile records the walk and never chooses it
	switch path {
	case viaLive:
		got, stats = each(queries, func(q []float32) ([]core.Result, core.Stats) { return r.tree.SearchLive(q, c.user, c.bitmap) })
		return got, stats, nil
	case viaSearcher:
		s := r.tree.NewSearcher()
		got, stats = each(queries, func(q []float32) ([]core.Result, core.Stats) { return s.Search(q, c.opts, nil) })
		return got, stats, nil
	case viaLoaded, viaAdopted, viaOwned:
		tw, opts := r.twin(t, path), c.opts
		if filter := opts.Filter; filter != nil && path == viaOwned {
			opts.Filter = func(label int32) bool { return filter(r.rowOf[label]) }
		}
		got, stats = searchEach(tw, queries, opts)
		batch, batchStats := tw.SearchBatch(queries, opts)
		_, counts = r.tree.SearchBatch(queries, ref)
		got, stats, counts = append(got, batch...), append(stats, batchStats...), slices.Concat(c.stats, counts)
		if path == viaOwned {
			for i, res := range got {
				if !ordered(res) {
					t.Fatalf("%s, row %d: %v out of (Dist, label) order", path, i, res)
				}
				for j := range res {
					res[j].ID = r.rowOf[res[j].ID]
				}
				core.SortResults(res)
			}
		}
		return got, stats, counts
	}
	size, err := strconv.Atoi(strings.TrimPrefix(path, "SearchBatch/"))
	if err != nil {
		t.Fatalf("no path %q", path)
	}
	// Each batch is a view of a matrix that runs on past its last row.
	rows, d := (queries.N+size-1)/size*size, queries.D
	all := vec.NewMatrix(rows+1, d)
	for i := 0; i < all.N; i++ {
		copy(all.Row(i), queries.Row(i%queries.N))
	}
	for lo := 0; lo < rows; lo += size {
		res, st := r.tree.SearchBatch(&vec.Matrix{Data: all.Data[lo*d:], N: size, D: d}, c.opts)
		got, stats = append(got, res...), append(stats, st...)
		if size > 1 {
			_, st = r.tree.SearchBatch(&vec.Matrix{Data: all.Data[lo*d : (lo+size)*d], N: size, D: d}, ref)
			counts = append(counts, st...)
		}
	}
	return got, stats, counts
}

// tiedAtLast: got and want hold the same distances and ids but at the last
// distance, where a tree under labels keeps the least labels of the points
// tied there and one over rows the least rows.
func tiedAtLast(got, want []core.Result) bool {
	if len(got) != len(want) || len(got) == 0 {
		return false
	}
	last := got[len(got)-1].Dist
	for i := range got {
		if got[i].Dist != want[i].Dist || got[i].Dist != last && got[i] != want[i] {
			return false
		}
	}
	return true
}

// ordered: res is in strict (Dist, ID) order.
func ordered(res []core.Result) bool {
	for j := 1; j < len(res); j++ {
		if res[j].Dist < res[j-1].Dist || res[j].Dist == res[j-1].Dist && res[j].ID <= res[j-1].ID {
			return false
		}
	}
	return true
}

// requireValid holds every answer of a path to what the contract asks of any
// answer, cancelled at once or not.
func (c *cell) requireValid(t *testing.T, path string, got [][]core.Result, stats []core.Stats) {
	t.Helper()
	queries, n := c.r.set.queries, int64(c.r.set.data.N)
	budget := n
	if c.opts.Budget > 0 {
		budget = min(n, int64(c.opts.Budget))
	}
	for i, res := range got {
		st := stats[i]
		if c.opts.Canceled() {
			if len(res) != 0 || st.Candidates != 0 || st.NodesVisited != 0 {
				t.Fatalf("%s, row %d: cancelled at once, answered %v after %+v", path, i, res, st)
			}
			continue
		}
		if st.NodesVisited < 1 || st.Candidates > budget || st.IPCount < st.Candidates || len(res) != min(c.opts.K, int(st.Candidates)) {
			t.Fatalf("%s, row %d: %d results from %+v (n %d, budget %d)", path, i, len(res), st, n, c.opts.Budget)
		}
		if !ordered(res) {
			t.Fatalf("%s, row %d: out of (Dist, ID) order: %v", path, i, res)
		}
		q := queries.Row(i % queries.N)
		for _, x := range res {
			if d := vec.AbsDot(q, c.r.set.data.Row(int(x.ID))); x.Dist != d {
				t.Fatalf("%s, row %d: id %d reported at %v, is at %v", path, i, x.ID, x.Dist, d)
			}
		}
	}
}

// each collects f's answer and counters for every query.
func each(queries *vec.Matrix, f func(q []float32) ([]core.Result, core.Stats)) ([][]core.Result, []core.Stats) {
	out, stats := make([][]core.Result, queries.N), make([]core.Stats, queries.N)
	for qi := range out {
		out[qi], stats[qi] = f(queries.Row(qi))
	}
	return out, stats
}

func searchEach(tree *Tree, queries *vec.Matrix, opts core.SearchOptions) ([][]core.Result, []core.Stats) {
	return each(queries, func(q []float32) ([]core.Result, core.Stats) { return tree.Search(q, opts) })
}

// requireSame asserts every answer is want's, saying how many differ.
func requireSame(t *testing.T, path string, got, want [][]core.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers for %d queries", path, len(got), len(want))
	}
	first, wrong := -1, 0
	for qi := range want {
		if !slices.Equal(got[qi], want[qi]) {
			if wrong++; first < 0 {
				first = qi
			}
		}
	}
	if wrong > 0 {
		t.Fatalf("%s: %d of %d answers differ; query %d:\n got %v\nwant %v", path, wrong, len(want), first, got[first], want[first])
	}
}

func sum(stats []core.Stats) (s core.Stats) {
	for _, st := range stats {
		s.Add(st)
	}
	return s
}

func TestTreeOracleMatrix(t *testing.T) {
	matrixView{shapes: matrixShapes, queries: 4}.run(t)
}

// The named slices. Rows named after a kind are built over the set's seed; the
// reseeded ones run under their kind's name.
var (
	plainRows = []string{"balltree", "bctree"}
	quantRows = []string{"balltree=balltree-quant", "bctree=bctree-quant"}
	bcRows    = []string{"bctree"}
)

func fixed(shapes ...matrixShape) func(*matrixSet) []matrixShape {
	return func(*matrixSet) []matrixShape { return shapes }
}

// pick takes shapes of matrixShapes by name — "shown=name" renames one —
// through paths.
func pick(paths []string, names ...string) func(*matrixSet) []matrixShape {
	return func(s *matrixSet) (out []matrixShape) {
		all := matrixShapes(s)
		for _, name := range names {
			shown, name, ok := strings.Cut(name, "=")
			if !ok {
				name = shown
			}
			sh := all[slices.IndexFunc(all, func(sh matrixShape) bool { return sh.name == name })]
			sh.name, sh.paths = shown, paths
			out = append(out, sh)
		}
		return out
	}
}

// clustered runs a slice over the clustered set, q of its queries (0: all).
func clustered(t *testing.T, rows []string, q int, shapes func(*matrixSet) []matrixShape) {
	matrixView{rows: rows, sets: setsNamed("clustered"), shapes: shapes, queries: q}.run(t)
}

// variants is the Figure 8 ablations at k, named after name.
func variants(name string, k int) []matrixShape {
	return []matrixShape{
		{name: name, opts: core.SearchOptions{K: k}},
		{name: name + "-wo-ball", opts: core.SearchOptions{K: k, DisablePointBall: true}},
		{name: name + "-wo-cone", opts: core.SearchOptions{K: k, DisablePointCone: true}},
		{name: name + "-wo-bc", opts: core.SearchOptions{K: k, DisablePointBall: true, DisablePointCone: true}},
	}
}

func TestSearchExactMatchesLinearScanAllVariants(t *testing.T) {
	matrixView{rows: plainRows, sets: setsNamed("clustered", "uniform", "heavy-tail", "low-rank", "sparse"), queries: 10,
		shapes: fixed(slices.Concat(variants("k1", 1), variants("k5", 5), variants("k10", 10))...)}.run(t)
}

func TestSearchBothPreferencesExact(t *testing.T) {
	clustered(t, plainRows, 0, fixed(matrixShape{name: "center", opts: core.SearchOptions{K: 3}},
		matrixShape{name: "lowerbound", opts: core.SearchOptions{K: 3, Preference: core.PrefLowerBound}}))
}

func TestSearchKLargerThanN(t *testing.T) {
	matrixView{rows: plainRows, sets: setsNamed("identical", "single-point leaves"), queries: 3, shapes: func(s *matrixSet) []matrixShape {
		return []matrixShape{{opts: core.SearchOptions{K: s.data.N + 7}, paths: batchPaths}}
	}}.run(t)
}

// TestQuickExactInvariantToParams: exact answers are the scan's at any leaf
// size, preference and ablation, on random uniform sets.
func TestQuickExactInvariantToParams(t *testing.T) {
	var shapes []matrixShape
	for _, pref := range []core.Preference{core.PrefCenter, core.PrefLowerBound} {
		for _, sh := range variants("", 4) {
			sh.name, sh.opts.Preference = "", pref
			shapes = append(shapes, sh)
		}
	}
	forKinds(t, func(t *testing.T, kind Kind) {
		f := func(seed int64) bool {
			n := rand.New(rand.NewSource(seed)).Intn(250) + 50
			raw := dataset.Generate(dataset.Spec{Name: "q", Family: dataset.FamilyUniform, RawDim: 8}, n, seed)
			for _, leaf := range []int{5, 37, 1000} {
				set := newSet("q", raw.AppendOnes(), dataset.GenerateQueries(raw, 2, seed+1), leaf, seed)
				matrixView{shapes: fixed(shapes...)}.runCells(t, matrixRow{kind.String(), kind, false}, &set)
			}
			return !t.Failed()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
			t.Error(err)
		}
	})
}

// TestSearchPrunesNodes: on clustered data node bounds prune subtrees, and
// the search verifies well under 80 % of the points.
func TestSearchPrunesNodes(t *testing.T) {
	clustered(t, plainRows, 0, fixed(matrixShape{opts: core.SearchOptions{K: 1}, check: func(t *testing.T, c *cell) {
		if st, all := sum(c.stats), len(c.got)*c.r.set.data.N; st.PrunedNodes == 0 || float64(st.Candidates) > 0.8*float64(all) {
			t.Fatalf("%d subtrees pruned, %d candidates of %d", st.PrunedNodes, st.Candidates, all)
		}
	}}))
}

// TestPointPruningReducesCandidates is Section IV-B: the point-level bounds
// prune points, and fewer are verified with them than without.
func TestPointPruningReducesCandidates(t *testing.T) {
	clustered(t, bcRows, 0, fixed(matrixShape{opts: core.SearchOptions{K: 10}, check: func(t *testing.T, c *cell) {
		_, without := searchEach(c.r.tree, c.r.set.queries, core.SearchOptions{K: 10, DisablePointBall: true, DisablePointCone: true})
		if with, without := sum(c.stats), sum(without); with.PrunedPoints == 0 || with.Candidates >= without.Candidates {
			t.Fatalf("%d points pruned; %d candidates with the point-level bounds, %d without", with.PrunedPoints, with.Candidates, without.Candidates)
		}
	}}))
}

// TestCollabIPHalvesInnerProducts is Theorem 5 on the counters: a BC search
// makes one O(d) centre product for the root and one per expanded node (the
// left child's), and each it derives by Lemma 2 stands for one it did not
// make — C_N → (C_N+1)/2 over the same traversal, which TestBallIsAblatedBC
// holds to the Ball tree's.
func TestCollabIPHalvesInnerProducts(t *testing.T) {
	clustered(t, bcRows, 0, fixed(matrixShape{opts: core.SearchOptions{K: 1}, check: func(t *testing.T, c *cell) {
		for qi, st := range c.stats {
			if made, without := st.IPCount-st.Candidates, st.IPCount-st.Candidates+st.CollabIPs; st.CollabIPs == 0 || made != (without+1)/2 {
				t.Fatalf("query %d: %d centre products made, want (C_N+1)/2 of C_N = %d", qi, made, without)
			}
		}
	}}))
}

// TestBallIsAblatedBC pins the paper's Figure 8 reading: over the same data,
// seed and leaf size, a BC tree with both point-level switches off answers as
// a Ball tree does, at either seed, and does the same work but for Lemma 2 —
// every counter agrees once each collaborative product is counted as the
// O(d) product the Ball tree made in its place. Direct and Lemma 1 centres
// can differ in the last ulp and a derived product carries its kappa, either
// of which could flip a bound on some input: this is pinned on fixed sets,
// not claimed for all data.
func TestBallIsAblatedBC(t *testing.T) {
	matrixView{rows: []string{"bctree", "bctree-quant"}, sets: setsNamed("clustered", "heavy-tail", "uniform"), shapes: fixed(matrixShape{
		opts: core.SearchOptions{K: 10, DisablePointBall: true, DisablePointCone: true}, paths: batchPaths, check: func(t *testing.T, c *cell) {
			_, ball := searchEach(Build(c.r.set.data, Ball, c.r.config()), c.r.set.queries, core.SearchOptions{K: 10})
			for qi, st := range c.stats {
				if st.CollabIPs, st.IPCount = 0, st.IPCount+st.CollabIPs; c.stats[qi].CollabIPs == 0 || st != ball[qi] {
					t.Fatalf("query %d: ablated BC counters %+v, Lemma 2 undone %+v, Ball's %+v", qi, c.stats[qi], st, ball[qi])
				}
			}
		}})}.run(t)
}

// profiled: a profiled search charges both verification and bound time, with
// a Filter's calls among the leaf scan's stages too.
func profiled(filter func(int32) bool) func(*matrixSet) []matrixShape {
	return func(*matrixSet) []matrixShape {
		return []matrixShape{{opts: core.SearchOptions{K: 5, Filter: filter, Profile: &core.Profile{}}, check: func(t *testing.T, c *cell) {
			if p := c.opts.Profile; p.Get(core.PhaseVerify) <= 0 || p.Get(core.PhaseBound) <= 0 {
				t.Fatalf("verify %v, bound %v: the profile must record both", p.Get(core.PhaseVerify), p.Get(core.PhaseBound))
			}
		}}}
	}
}

func TestSearchProfileRecordsPhases(t *testing.T) { clustered(t, plainRows, 3, profiled(nil)) }

func TestSearchFilteredProfileRecordsPhases(t *testing.T) {
	clustered(t, plainRows, 3, profiled(func(id int32) bool { return id%2 == 0 }))
}

// TestSearchCancelMidway: cancelled at the fifth poll, both drivers stop early
// with a sorted partial answer; the best-first one abandons its frontier on
// the first poll that fires rather than drain it.
func TestSearchCancelMidway(t *testing.T) {
	clustered(t, plainRows, 3, fixed(matrixShape{opts: core.SearchOptions{K: 5}, check: func(t *testing.T, c *cell) {
		for qi := range c.got {
			for _, budget := range []int{0, c.r.tree.N()} {
				q, polls := c.r.set.queries.Row(qi), 0
				_, full := c.r.tree.Search(q, core.SearchOptions{K: 5, Budget: budget})
				res, st := c.r.tree.Search(q, core.SearchOptions{K: 5, Budget: budget, Cancel: func() bool { polls++; return polls > 4 }})
				if st.NodesVisited >= full.NodesVisited || budget > 0 && polls != 5 ||
					!slices.IsSortedFunc(res, func(a, b core.Result) int { return cmp.Compare(a.Dist, b.Dist) }) {
					t.Fatalf("query %d budget %d: %d polls, %d of %d nodes, answer %v", qi, budget, polls, st.NodesVisited, full.NodesVisited, res)
				}
			}
		}
	}}))
}

// TestSearchBatchMatchesSequential: the batch paths on every shape the one
// exact walk carries — tiled, filtered, predicated, profiled, with a Cancel
// hook that never fires — and under a budget.
func TestSearchBatchMatchesSequential(t *testing.T) {
	shapes := pick(batchPaths, "exact-k1=k1", "exact-k10=k10", "exact-kBig=kBig", "budget", "filtered=filter", "pred", "profiled",
		"cancel-never", "lowerbound-pref=lowerbound", "wo-ball", "wo-cone")
	clustered(t, plainRows, 0, func(s *matrixSet) []matrixShape {
		out := shapes(s)
		out[5].check = func(t *testing.T, c *cell) {
			if _, stats := c.r.tree.SearchBatch(c.r.set.queries, c.opts); sum(stats).FilterSkippedNodes == 0 {
				t.Fatal("the batch's walk skipped no subtree by its summaries")
			}
		}
		return out
	})
}

func TestSearchBatchEmptyAndSingle(t *testing.T) {
	clustered(t, plainRows, 3, fixed(matrixShape{opts: core.SearchOptions{K: 5}, paths: []string{viaBatch(1)}, check: func(t *testing.T, c *cell) {
		if out, stats := c.r.tree.SearchBatch(&vec.Matrix{D: c.r.tree.Dim()}, c.opts); len(out) != 0 || len(stats) != 0 {
			t.Fatalf("empty batch: %d results, %d stats", len(out), len(stats))
		}
	}}))
}

// TestSearchBatchTrailingRows: every batch is a view whose Data runs past its
// N rows, exact (tiled and leftover queries) and budgeted.
func TestSearchBatchTrailingRows(t *testing.T) {
	clustered(t, plainRows, 9, fixed(matrixShape{opts: core.SearchOptions{K: 5}, paths: batchPaths},
		matrixShape{opts: core.SearchOptions{K: 5, Budget: 40}, paths: batchPaths}))
}

func TestSearchBatchStatsAccounted(t *testing.T) {
	clustered(t, plainRows, 8, fixed(matrixShape{opts: core.SearchOptions{K: 5}, paths: batchPaths}))
}

// TestSearchBatchBallPruningActive: the tiles apply the point-level ball
// bound, and turning it off changes no answer.
func TestSearchBatchBallPruningActive(t *testing.T) {
	clustered(t, bcRows, 10, fixed(matrixShape{opts: core.SearchOptions{K: 5, DisablePointBall: true}, paths: batchPaths},
		matrixShape{opts: core.SearchOptions{K: 5}, paths: batchPaths, check: func(t *testing.T, c *cell) {
			if _, stats := c.r.tree.SearchBatch(c.r.set.queries, c.opts); sum(stats).PrunedPoints == 0 {
				t.Fatal("the batched ball bound pruned no point")
			}
		}}))
}

func TestSearchCancelImmediate(t *testing.T) {
	clustered(t, plainRows, 5, fixed(matrixShape{opts: core.SearchOptions{K: 5, Cancel: cancelNow}, paths: batchPaths},
		matrixShape{opts: core.SearchOptions{K: 5, Budget: 50, Cancel: cancelNow}, paths: allPaths}))
}

// TestLiveMaskEqualsFilter: SearchLive's bitmap is a Filter closure over the
// same bits moved into the leaf scan — exact and under three budgets, alone
// and beside a caller's Filter.
func TestLiveMaskEqualsFilter(t *testing.T) {
	clustered(t, plainRows, 0, func(s *matrixSet) (out []matrixShape) {
		for _, budget := range []int{0, s.data.N / 100, s.data.N / 20, s.data.N / 4} {
			for _, user := range []func(int32) bool{nil, func(id int32) bool { return id%5 != 0 }} {
				out = append(out, matrixShape{opts: core.SearchOptions{K: 10, Budget: budget, Filter: user}, live: true, paths: []string{viaLive}})
			}
		}
		return out
	})
}

// TestQuantSearchMatchesFloat: the reseeded rows on the shapes the 8-bit
// mirror's equality test ran. A second tree shape answers an exact search as
// the scan does: the answer is the data's, not the pivots'.
func TestQuantSearchMatchesFloat(t *testing.T) {
	clustered(t, quantRows, 0, pick(nil, "exact-k1=k1", "exact-k10=k10", "exact-kBig=kBig", "budget", "filtered=filter",
		"lowerbound-pref=lowerbound", "no-point-ball=wo-ball", "no-point-cone=wo-cone", "no-point-bounds=wo-bc", "ablated=accept-all"))
}

func TestQuantBatchMatchesSequential(t *testing.T) {
	clustered(t, quantRows, 0, pick(batchPaths, "exact-k1=k1", "exact-k10=k10", "exact-kBig=kBig", "no-point-ball=wo-ball", "ablated=accept-all"))
}

// TestQuantSaveLoadRoundTrip: a tree round-trips through Save→Load, and its
// payload cut short fails the load. (A payload that carried the 8-bit leaf
// mirror is refused by name: TestLoadNamesRetiredVersions.)
func TestQuantSaveLoadRoundTrip(t *testing.T) {
	clustered(t, quantRows, 10, fixed(matrixShape{opts: core.SearchOptions{K: 7}, paths: []string{viaLoaded}, check: func(t *testing.T, c *cell) {
		var buf bytes.Buffer
		if err := c.r.tree.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(buf.Bytes()[:buf.Len()-5]), c.r.row.kind, 0); err == nil {
			t.Fatal("a cut payload loaded")
		}
	}}))
}

func TestAdoptServesTheMappedSections(t *testing.T) {
	clustered(t, []string{"balltree", "balltree=balltree-quant", "bctree", "bctree=bctree-quant"}, 9, fixed(
		matrixShape{opts: core.SearchOptions{K: 5}, paths: []string{viaAdopted}},
		matrixShape{opts: core.SearchOptions{K: 5, Budget: 60}, paths: []string{viaAdopted}}))
}

// TestLabelsAreTheTreesIDs: a tree built under labels reports, filters by
// and evaluates predicates on them (the owned path).
func TestLabelsAreTheTreesIDs(t *testing.T) {
	clustered(t, plainRows, 12, func(s *matrixSet) []matrixShape {
		owned := []string{viaOwned}
		return []matrixShape{{opts: core.SearchOptions{K: 7}, paths: owned}, {opts: core.SearchOptions{K: 7, Budget: 150}, paths: owned},
			{opts: core.SearchOptions{K: 7, Filter: keepNotMod3}, paths: owned}, {opts: core.SearchOptions{K: 7, Pred: s.pred}, paths: owned}}
	})
}

// The low-dimensional gate: lowDimCases at lowDimN points, lowDimQueries
// hyperplanes through data points each. Its answers flip under a kappa
// without centerStep on few queries of one set; the bounds themselves are
// pinned point by point in TestBoundsSoundOnLowDimensionalData, which such a
// kappa fails by thousands on every BC set.
const lowDimN, lowDimQueries = 50000, 300

// TestExactOnLowDimensionalData: exact search, sequential and batched, is the
// scan's answer bit for bit where the bounds have no room for an unaccounted
// rounding (lowDimCase).
func TestExactOnLowDimensionalData(t *testing.T) {
	matrixView{rows: plainRows, sets: lowDimSets(lowDimN, lowDimQueries),
		shapes: fixed(matrixShape{opts: core.SearchOptions{K: 10}, paths: []string{viaBatch(64)}})}.run(t)
}

// overlap counts the results within the k-th distance of gt (ties counted as
// hits, the standard recall convention).
func overlap(res, gt []core.Result) int {
	if len(gt) == 0 {
		return 0
	}
	kth := gt[len(gt)-1].Dist
	hits := 0
	for _, r := range res {
		if r.Dist <= kth*(1+1e-9)+1e-12 {
			hits++
		}
	}
	if hits > len(gt) {
		hits = len(gt)
	}
	return hits
}

func budgetLadder(n int) []int { return []int{1, 7, 30, n / 8, n / 3, n} }

// TestBudgetedSearchProperties is the contract of a budgeted search, one group
// per property: on a clustered set, where the order nodes open in decides
// recall, a uniform one and single-point leaves.
func TestBudgetedSearchProperties(t *testing.T) {
	prefs := []core.Preference{core.PrefCenter, core.PrefLowerBound}
	matrixView{rows: plainRows, sets: setsNamed("clustered", "uniform", "single-point leaves"), shapes: func(s *matrixSet) (out []matrixShape) {
		n := s.data.N
		add := func(name string, opts core.SearchOptions, paths ...string) {
			out = append(out, matrixShape{name: name, opts: opts, paths: paths})
		}
		for _, pref := range prefs {
			add("budget of n is exact", core.SearchOptions{K: 10, Budget: n, Preference: pref})
			add("budget of n is exact", core.SearchOptions{K: 10, Budget: n + 1000, Preference: pref})
		}
		out = append(out, matrixShape{name: "candidates under a budget prefix those under a larger one", opts: core.SearchOptions{K: 10}, check: checkBudgetPrefixes})
		for _, b := range budgetLadder(n) {
			add("repeatable", core.SearchOptions{K: 10, Budget: b}, viaSearcher)
		}
		for _, b := range budgetLadder(n) {
			add("pred pushdown equals filter closure", core.SearchOptions{K: 10, Budget: b, Pred: s.pred})
		}
		out[len(out)-1].check = func(t *testing.T, c *cell) {
			if sum(c.stats).FilterSkippedNodes == 0 {
				t.Fatal("no subtree was skipped: the pushdown path was not exercised")
			}
		}
		for _, b := range budgetLadder(n) {
			for _, pref := range prefs {
				add("both preferences give valid answers in different orders", core.SearchOptions{K: 10, Budget: b, Preference: pref})
			}
		}
		out[len(out)-1].check = func(t *testing.T, c *cell) {
			for _, b := range budgetLadder(n) {
				for qi := 0; qi < s.queries.N; qi++ {
					_, center := c.r.tree.Search(s.queries.Row(qi), core.SearchOptions{K: 10, Budget: b})
					if _, lb := c.r.tree.Search(s.queries.Row(qi), core.SearchOptions{K: 10, Budget: b, Preference: core.PrefLowerBound}); lb != center {
						return
					}
				}
			}
			t.Fatal("the two preferences never opened nodes in a different order")
		}
		if s.leafSize == 1 {
			// A zero-radius ball has no radius to be relative to. Keyed "last
			// unless exactly on the hyperplane" the leaves would open in arena
			// order, and five candidates would rarely hold the nearest; ranked
			// on the parent's radius they compete by how near they lie.
			out = append(out, matrixShape{name: "zero-radius leaves compete by their offset", opts: core.SearchOptions{K: 1, Budget: 5}, check: func(t *testing.T, c *cell) {
				hits := 0
				for qi, res := range c.got {
					hits += overlap(res, c.exact[qi])
				}
				if recall := float64(hits) / float64(len(c.got)); recall < 0.4 {
					t.Fatalf("recall@1 %.2f with 5 candidates over single-point leaves, want >= 0.4", recall)
				}
			}})
		}
		return out
	}}.run(t)
}

// checkBudgetPrefixes: the candidates a budget verifies prefix those of a
// larger one, so recall never falls as the budget grows, and ends at 1 (c is
// the exact k = 10 cell).
func checkBudgetPrefixes(t *testing.T, c *cell) {
	tree, queries, budgets := c.r.tree, c.r.set.queries, budgetLadder(c.r.tree.N())
	// An accept-all Filter sees exactly the verified candidates, in order, and
	// leaves every counter where the unfiltered search puts it.
	verified := func(q []float32, budget int) (seq []int32) {
		opts := core.SearchOptions{K: 10, Budget: budget}
		_, want := tree.Search(q, opts)
		opts.Filter = func(id int32) bool { seq = append(seq, id); return true }
		if _, st := tree.Search(q, opts); st != want || int64(len(seq)) != st.Candidates {
			t.Fatalf("budget %d: an accept-all filter saw %d ids, counted %+v, unfiltered %+v", budget, len(seq), st, want)
		}
		return seq
	}
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		verified(q, 0)
		var prev []int32
		var prevRes []core.Result
		for i, budget := range budgets {
			seq := verified(q, budget)
			if len(seq) < len(prev) || !slices.Equal(seq[:len(prev)], prev) {
				t.Fatalf("query %d budget %d verified %v, not an extension of %v", qi, budget, seq, prev)
			}
			prev = seq
			if i == len(budgets)-1 {
				continue
			}
			// Unfiltered, the blocked leaf scan: with K as large as the budget
			// λ stays infinite, so the answer is the verified set.
			res, _ := tree.Search(q, core.SearchOptions{K: budgets[len(budgets)-2], Budget: budget})
			if len(res) != budget || slices.ContainsFunc(prevRes, func(r core.Result) bool {
				return !slices.ContainsFunc(res, func(s core.Result) bool { return s.ID == r.ID })
			}) {
				t.Fatalf("query %d budget %d: %d candidates verified, or one of the smaller budget's dropped", qi, budget, len(res))
			}
			prevRes = res
		}
	}
	var recall float64
	for _, budget := range budgets {
		hits := 0
		for qi := 0; qi < queries.N; qi++ {
			res, _ := tree.Search(queries.Row(qi), core.SearchOptions{K: 10, Budget: budget})
			hits += overlap(res, c.exact[qi])
		}
		r := float64(hits) / float64(10*queries.N)
		if r < recall {
			t.Fatalf("recall fell from %.4f to %.4f at budget %d", recall, r, budget)
		}
		recall = r
	}
	if recall != 1 {
		t.Fatalf("recall %.4f at budget n, want 1", recall)
	}
}
