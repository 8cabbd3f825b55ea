package dynamic

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"p2h/internal/attr"
	"p2h/internal/core"
	"p2h/internal/dataset"
	"p2h/internal/linearscan"
	"p2h/internal/vec"
)

func liftedData(n, d int, seed int64) (*vec.Matrix, *vec.Matrix) {
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: d, Clusters: 6}, n, seed)
	raw = dataset.Dedup(raw)
	return raw.AppendOnes(), dataset.GenerateQueries(raw, 6, seed+1)
}

// mustInsert inserts x without attributes, which the index never refuses.
func mustInsert(ix *Index, x []float32) int32 {
	h, err := ix.Insert(x, attr.Point{})
	if err != nil {
		panic(err)
	}
	return h
}

// reference is the naive mutable index the dynamic one must agree with.
type reference struct {
	rows  *vec.Matrix
	alive []bool
}

func newReference(d int) *reference {
	return &reference{rows: vec.NewMatrix(0, d)}
}

func (r *reference) insert(x []float32) int32 {
	h := int32(r.rows.N)
	r.rows.Data = append(r.rows.Data, x...)
	r.rows.N++
	r.alive = append(r.alive, true)
	return h
}

func (r *reference) delete(h int32) bool {
	if h < 0 || int(h) >= len(r.alive) || !r.alive[h] {
		return false
	}
	r.alive[h] = false
	return true
}

func (r *reference) search(q []float32, k int) []core.Result {
	tk := core.NewTopK(k)
	for i := 0; i < r.rows.N; i++ {
		if !r.alive[i] {
			continue
		}
		tk.Push(int32(i), vec.AbsDot(q, r.rows.Row(i)))
	}
	return tk.Results()
}

// vector returns the stored vector of a live handle (aliasing internal
// storage) and whether the handle is live. The index keeps no handle ->
// position map for this: a delta handle is its row, a compacted one costs a
// scan of the tree's id map, which holds handles.
func (ix *Index) vector(handle int32) ([]float32, bool) {
	if handle < 0 || int(handle) >= ix.Handles() || !ix.live.Has(handle) {
		return nil, false
	}
	if int(handle) >= ix.base {
		return ix.delta.Row(int(handle) - ix.base), true
	}
	points, handles := ix.tree.Rows()
	return points.Row(slices.Index(handles, handle)), true
}

func sameDists(a, b []core.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i].Dist-b[i].Dist) > 1e-9*(1+b[i].Dist) {
			return false
		}
	}
	return true
}

func TestNewValidations(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, Config{})
}

func TestBulkLoadMatchesScan(t *testing.T) {
	data, queries := liftedData(700, 12, 1)
	ix := NewFromMatrix(data.Clone(), Config{LeafSize: 30, Seed: 2}) // the index takes its matrix over
	if ix.N() != data.N || ix.delta.N != 0 {
		t.Fatalf("bulk load state: %s", ix)
	}
	scan := linearscan.New(data)
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		got, _ := ix.Search(q, core.SearchOptions{K: 5})
		want, _ := scan.Search(q, core.SearchOptions{K: 5})
		if !sameDists(got, want) {
			t.Fatalf("query %d: %v want %v", qi, got, want)
		}
	}
}

func TestInsertedPointIsFound(t *testing.T) {
	data, _ := liftedData(300, 8, 3)
	ix := NewFromMatrix(data, Config{Seed: 4})
	// A point on a known hyperplane: q = (e1; -5) passes through it.
	x := make([]float32, data.D)
	x[0] = 5
	x[data.D-1] = 1
	h := mustInsert(ix, x)
	q := make([]float32, data.D)
	q[0] = 1
	q[data.D-1] = -5
	res, _ := ix.Search(q, core.SearchOptions{K: 1})
	if res[0].ID != h || res[0].Dist > 1e-6 {
		t.Fatalf("inserted point not found: %v (handle %d)", res, h)
	}
}

// A budgeted search must still look at the delta buffer: the tree spends its
// share of the budget, not all of it.
func TestBudgetedSearchSeesBuffer(t *testing.T) {
	data, _ := liftedData(3000, 8, 9)
	ix := NewFromMatrix(data, Config{Seed: 10})
	x := make([]float32, data.D)
	x[0] = 5
	x[data.D-1] = 1
	h := mustInsert(ix, x)
	if ix.delta.N != 1 {
		t.Fatalf("insert did not land in the buffer: %s", ix)
	}
	q := make([]float32, data.D)
	q[0] = 1
	q[data.D-1] = -5
	budget := ix.N() / 100
	res, st := ix.Search(q, core.SearchOptions{K: 5, Budget: budget})
	if len(res) == 0 || res[0].ID != h || res[0].Dist > 1e-6 {
		t.Fatalf("buffered point not at rank 1 under budget %d: %v (handle %d)", budget, res, h)
	}
	if st.Candidates > int64(budget) {
		t.Fatalf("verified %d candidates under budget %d", st.Candidates, budget)
	}
	// What the tree does not spend of its share goes to the buffer: with
	// every tree point filtered out, a budget of 3 verifies 3 buffered points
	// though the buffer's own share is 1.
	for i := 0; i < 3; i++ {
		mustInsert(ix, x)
	}
	_, st = ix.Search(q, core.SearchOptions{K: 5, Budget: 3, Filter: func(id int32) bool { return id >= h }})
	if st.Candidates != 3 {
		t.Fatalf("verified %d buffered candidates under budget 3 with the tree filtered out", st.Candidates)
	}
}

func TestDeletedPointDisappears(t *testing.T) {
	data, queries := liftedData(400, 10, 5)
	ix := NewFromMatrix(data, Config{Seed: 6})
	q := queries.Row(0)
	before, _ := ix.Search(q, core.SearchOptions{K: 1})
	if !ix.Delete(before[0].ID) {
		t.Fatal("delete of live handle failed")
	}
	after, _ := ix.Search(q, core.SearchOptions{K: 1})
	if after[0].ID == before[0].ID {
		t.Fatal("deleted point still returned")
	}
	if ix.Delete(before[0].ID) {
		t.Fatal("double delete must report false")
	}
	if ix.Delete(-1) || ix.Delete(int32(data.N+500)) {
		t.Fatal("out-of-range delete must report false")
	}
}

func TestRebuildTriggersAndFoldsBuffer(t *testing.T) {
	data, _ := liftedData(1000, 8, 7)
	ix := NewFromMatrix(data, Config{Seed: 8, CompactFraction: 0.1})
	x := make([]float32, data.D)
	x[data.D-1] = 1
	// Push well past the 10% delta threshold; the buffer must fold.
	for i := 0; i < 200; i++ {
		x[0] = float32(i)
		mustInsert(ix, x)
	}
	if ix.delta.N > 100 {
		t.Fatalf("buffer never folded: %d pending", ix.delta.N)
	}
	if ix.N() != data.N+200 {
		t.Fatalf("live count %d", ix.N())
	}
}

func TestEmptyAndDrainedIndex(t *testing.T) {
	ix := New(4, Config{})
	q := []float32{1, 0, 0, -1}
	res, _ := ix.Search(q, core.SearchOptions{K: 3})
	if len(res) != 0 {
		t.Fatalf("empty index returned %v", res)
	}
	h := mustInsert(ix, []float32{1, 2, 3, 1})
	if got, ok := ix.vector(h); !ok || got[0] != 1 {
		t.Fatal("vector lookup failed")
	}
	// With no tree, all a search verifies is the delta: a profile charges it.
	var prof core.Profile
	if res, _ := ix.Search(q, core.SearchOptions{K: 3, Profile: &prof}); len(res) != 1 || prof.Get(core.PhaseVerify) <= 0 {
		t.Fatalf("profiled search of the delta alone: %v, verification %v", res, prof.Get(core.PhaseVerify))
	}
	ix.Delete(h)
	if _, ok := ix.vector(h); ok {
		t.Fatal("vector of deleted handle must not resolve")
	}
	res, _ = ix.Search(q, core.SearchOptions{K: 3})
	if len(res) != 0 {
		t.Fatalf("drained index returned %v", res)
	}
	ix.Compact() // an explicit fold of an empty index must be a no-op
	if ix.N() != 0 {
		t.Fatal("rebuild resurrected points")
	}
}

func TestUserFilterComposesWithLiveness(t *testing.T) {
	data, queries := liftedData(500, 10, 9)
	ix := NewFromMatrix(data, Config{Seed: 10})
	q := queries.Row(0)
	even := func(h int32) bool { return h%2 == 0 }
	res, _ := ix.Search(q, core.SearchOptions{K: 10, Filter: even})
	for _, r := range res {
		if r.ID%2 != 0 {
			t.Fatalf("filter violated: %v", r)
		}
	}
}

// TestQuickRandomOpsMatchReference: a random interleaving of inserts,
// deletes, and searches agrees with the naive reference index at every step.
func TestQuickRandomOpsMatchReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := rng.Intn(6) + 3
		ix := New(d, Config{LeafSize: 10, Seed: seed, CompactFraction: 0.2})
		ref := newReference(d)
		var handles []int32

		randVec := func() []float32 {
			x := make([]float32, d)
			for j := 0; j < d-1; j++ {
				x[j] = float32(rng.NormFloat64())
			}
			x[d-1] = 1
			return x
		}
		randQuery := func() []float32 {
			q := make([]float32, d)
			for j := range q {
				q[j] = float32(rng.NormFloat64())
			}
			return q
		}

		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 5 || len(handles) == 0: // insert
				x := randVec()
				h1 := mustInsert(ix, x)
				h2 := ref.insert(x)
				if h1 != h2 {
					return false
				}
				handles = append(handles, h1)
			case op < 7: // delete a random known handle (possibly dead)
				h := handles[rng.Intn(len(handles))]
				if ix.Delete(h) != ref.delete(h) {
					return false
				}
			default: // search
				if ix.N() == 0 {
					continue
				}
				q := randQuery()
				got, _ := ix.Search(q, core.SearchOptions{K: 3})
				want := ref.search(q, 3)
				if !sameDists(got, want) {
					return false
				}
			}
			if ix.N() != func() int {
				n := 0
				for _, a := range ref.alive {
					if a {
						n++
					}
				}
				return n
			}() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestDeleteAfterBitmapGrowth: liveness is one bitmap the index hands every
// search, so the inserts that make it reallocate cannot leave a search reading
// an outgrown copy. A snapshot handle deleted after the growth — each query's
// nearest point — is answered by no search, exact or budgeted, on the pooled
// searchers that served the searches before it.
func TestDeleteAfterBitmapGrowth(t *testing.T) {
	data, queries := liftedData(500, 6, 3)
	ix := NewFromMatrix(data, Config{LeafSize: 16, Seed: 1})
	ix.SetBackgroundCompaction(true) // keep every handle in the one snapshot
	var victims []int32
	for qi := 0; qi < queries.N; qi++ {
		res, _ := ix.Search(queries.Row(qi), core.SearchOptions{K: 1})
		victims = append(victims, res[0].ID)
	}
	first := &ix.live[0]
	rng := rand.New(rand.NewSource(4))
	for &ix.live[0] == first {
		mustInsert(ix, randLifted(rng, data.D))
	}
	for _, h := range victims {
		ix.Delete(h)
	}
	for qi := 0; qi < queries.N; qi++ {
		for _, budget := range []int{0, 50} {
			res, _ := ix.Search(queries.Row(qi), core.SearchOptions{K: 10, Budget: budget})
			for _, r := range res {
				if slices.Contains(victims, r.ID) {
					t.Fatalf("query %d, budget %d: deleted handle %d answered", qi, budget, r.ID)
				}
			}
		}
	}
}

// TestCancelStopsTheDeltaScan: a Cancel that fires once the tree is done
// stops the delta's scan at its next chunk (256 rows), so a deadline bounds
// the delta's thousands of rows as it bounds the tree.
func TestCancelStopsTheDeltaScan(t *testing.T) {
	data, queries := liftedData(2000, 8, 5)
	ix := NewFromMatrix(data, Config{Seed: 6})
	ix.SetBackgroundCompaction(true) // keep the delta unfolded
	rng := rand.New(rand.NewSource(7))
	for range 5000 {
		mustInsert(ix, randLifted(rng, data.D))
	}
	base := int32(ix.base)
	q := queries.Row(0)
	_, tree := ix.Search(q, core.SearchOptions{K: 10, Filter: func(h int32) bool { return h < base }})
	var inDelta bool
	_, st := ix.Search(q, core.SearchOptions{
		K:      10,
		Filter: func(h int32) bool { inDelta = inDelta || h >= base; return true },
		Cancel: func() bool { return inDelta },
	})
	if delta := st.Candidates - tree.Candidates; delta <= 0 || delta > 256 {
		t.Fatalf("the canceled search verified %d delta rows of %d, want one chunk of at most 256", delta, ix.delta.N)
	}
}

// TestInsertPayloadRule: an insert refuses a payload the rule refuses
// before anything changes, an empty payload creates no attribute store, and
// an attributed insert pads the store with empty rows for the handles before
// it; every later insert adds its row.
func TestInsertPayloadRule(t *testing.T) {
	ix := New(3, Config{})
	mustInsert(ix, []float32{1, 0, 1})
	if ix.Attrs() != nil {
		t.Fatal("an insert without attributes created a store")
	}
	bad := attr.Point{Tags: []string{strings.Repeat("t", 5000)}}
	if h, err := ix.Insert([]float32{0, 1, 1}, bad); !errors.Is(err, attr.ErrPayload) || h != 0 {
		t.Fatalf("Insert of a 5000-byte tag = %d, %v; want 0 and ErrPayload", h, err)
	}
	if ix.Handles() != 1 || ix.N() != 1 || ix.delta.N != 1 || ix.Attrs() != nil {
		t.Fatalf("refused insert changed the index: %v", ix)
	}
	at := attr.Point{Tags: []string{"x"}}
	if h, err := ix.Insert([]float32{0, 1, 1}, at); err != nil || h != 1 {
		t.Fatalf("attributed insert = %d, %v", h, err)
	}
	mustInsert(ix, []float32{1, 1, 1})
	x := ix.Attrs().Compile(attr.TagIs("x"))
	if ix.Attrs().N() != 3 || x.Match(0) || !x.Match(1) || x.Match(2) {
		t.Fatalf("attribute store of %d rows, tag x on rows 0..2: %v %v %v",
			ix.Attrs().N(), x.Match(0), x.Match(1), x.Match(2))
	}
}

// TestInsertRefusesFieldKindClash: a field that is an int in one payload
// and a float in another cannot be saved, so the later insert is refused
// before anything changes — no handle, no store row — and a store that mixes
// them cannot be built to attach.
func TestInsertRefusesFieldKindClash(t *testing.T) {
	ix := New(3, Config{})
	if _, err := ix.Insert([]float32{1, 0, 1}, attr.Point{Ints: map[string]int64{"x": 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert([]float32{0, 1, 1}, attr.Point{Floats: map[string]float64{"x": 1.5, "y": 2}}); !errors.Is(err, attr.ErrPayload) {
		t.Fatalf("clashing insert: %v, want ErrPayload", err)
	}
	if ix.Handles() != 1 || ix.Attrs().N() != 1 {
		t.Fatalf("refused insert changed the index: %d handles, %d store rows", ix.Handles(), ix.Attrs().N())
	}
	if schema := ix.Attrs().Fields(); !slices.Equal(schema, []string{"x:int"}) {
		t.Fatalf("refused insert changed the schema: %v", schema)
	}
	mustInsert(ix, []float32{0, 1, 1})
	mixed := []attr.Point{{Ints: map[string]int64{"y": 1}}, {Floats: map[string]float64{"y": 1}}}
	if _, err := attr.Build(mixed); !errors.Is(err, attr.ErrPayload) {
		t.Fatalf("Build of a mixed column: %v, want ErrPayload", err)
	}
	short, err := attr.Build(mixed[:1])
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.AttachAttrs(short); err == nil {
		t.Fatal("AttachAttrs took a store of 1 row for 2 handles")
	}
	if err := ix.AttachAttrs(nil); err != nil || ix.Attrs() != nil {
		t.Fatalf("detach: %v", err)
	}
}
