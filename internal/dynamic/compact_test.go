package dynamic

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"p2h/internal/core"
)

func randLifted(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for j := range v {
		v[j] = rng.Float32()*2 - 1
	}
	v[dim-1] = 1 // lifted coordinate
	return v
}

func searchHandles(t *testing.T, ix *Index, q []float32, k int) []int32 {
	t.Helper()
	res, _ := ix.Search(q, core.SearchOptions{K: k})
	out := make([]int32, len(res))
	for i, r := range res {
		out[i] = r.ID
	}
	return out
}

// TestCompactEquivalence drives identical random mutation streams through a
// synchronous index and a background-compacted one, interleaving compaction
// cycles at arbitrary points, and asserts exact search equivalence
// throughout: tree shape may differ, result sets may not (PR-3 canonical
// ordering makes exact top-k traversal-order-independent).
func TestCompactEquivalence(t *testing.T) {
	const dim, nops = 6, 1200
	rng := rand.New(rand.NewSource(11))
	sync := New(dim, Config{Seed: 1})
	bg := New(dim, Config{Seed: 1})
	bg.SetBackgroundCompaction(true)

	var handles []int32
	for i := 0; i < nops; i++ {
		if len(handles) == 0 || rng.Intn(4) > 0 {
			v := randLifted(rng, dim)
			h1 := sync.Insert(v)
			h2 := bg.Insert(v)
			if h1 != h2 {
				t.Fatalf("op %d: handles diverged %d vs %d", i, h1, h2)
			}
			handles = append(handles, h1)
		} else {
			j := rng.Intn(len(handles))
			h := handles[j]
			ok1 := sync.Delete(h)
			ok2 := bg.Delete(h)
			if ok1 != ok2 {
				t.Fatalf("op %d: delete(%d) diverged %v vs %v", i, h, ok1, ok2)
			}
			handles = append(handles[:j], handles[j+1:]...)
		}
		if bg.CompactionNeeded() && rng.Intn(2) == 0 {
			if !bg.Compact() {
				t.Fatalf("op %d: CompactionNeeded but Compact was a no-op", i)
			}
		}
		if i%100 == 99 {
			if sync.N() != bg.N() || sync.Handles() != bg.Handles() {
				t.Fatalf("op %d: N %d/%d handles %d/%d", i, sync.N(), bg.N(), sync.Handles(), bg.Handles())
			}
			q := randLifted(rng, dim)
			a := searchHandles(t, sync, q, 10)
			b := searchHandles(t, bg, q, 10)
			if len(a) != len(b) {
				t.Fatalf("op %d: result sizes %d vs %d", i, len(a), len(b))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("op %d: result %d: %d vs %d", i, j, a[j], b[j])
				}
			}
		}
	}

	// After a canonicalizing Rebuild both indexes serialize identically:
	// same rows, same liveness, same live set, same (deterministic) tree.
	sync.Rebuild()
	bg.Rebuild()
	var sb, bb bytes.Buffer
	if err := sync.Save(&sb); err != nil {
		t.Fatal(err)
	}
	if err := bg.Save(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb.Bytes(), bb.Bytes()) {
		t.Fatal("Save bytes differ after canonicalizing Rebuild")
	}
}

// TestCompactReconciliation races mutations into the capture/build/install
// window by hand and checks the install-time bookkeeping.
func TestCompactReconciliation(t *testing.T) {
	const dim = 4
	rng := rand.New(rand.NewSource(12))
	ix := New(dim, Config{Seed: 2})
	ix.SetBackgroundCompaction(true)
	var inserted [][]float32 // by handle
	insert := func() int32 {
		inserted = append(inserted, randLifted(rng, dim))
		return ix.Insert(inserted[len(inserted)-1])
	}
	for i := 0; i < 500; i++ {
		insert()
	}

	c := ix.BeginCompaction()
	if c == nil {
		t.Fatal("BeginCompaction returned nil with a 500-point buffer")
	}

	// Mutations landing between capture and install: new inserts, a delete
	// of a captured handle, a delete of a handle inserted after capture.
	var late []int32
	for i := 0; i < 50; i++ {
		late = append(late, insert())
	}
	if !ix.Delete(10) {
		t.Fatal("delete of captured handle failed")
	}
	if !ix.Delete(late[7]) {
		t.Fatal("delete of late handle failed")
	}

	c.Build(ix.cfg)
	ix.Install(c)

	if ix.treeN() != 500 {
		t.Fatalf("tree over %d ids, want the 500 captured", ix.treeN())
	}
	if ix.treeDel != 1 {
		t.Fatalf("treeDel = %d, want 1 (handle 10)", ix.treeDel)
	}
	// The raced rows are the new delta, the deleted one included: it stays
	// until the next rebuild, dead.
	if ix.base != 500 || ix.delta.N != 50 {
		t.Fatalf("base %d, delta of %d rows; want 500 and the 50 late inserts", ix.base, ix.delta.N)
	}
	if ix.N() != 548 {
		t.Fatalf("N = %d, want 548", ix.N())
	}

	// The reconciled index answers exactly like a fresh rebuild.
	q := randLifted(rng, dim)
	got := searchHandles(t, ix, q, 20)
	ref := New(dim, Config{Seed: 2})
	for h, row := range inserted {
		if rh := ref.Insert(row); rh != int32(h) {
			t.Fatalf("reference handle %d != %d", rh, h)
		}
		if v, ok := ix.vector(int32(h)); !ok {
			ref.Delete(int32(h))
		} else if !slices.Equal(v, row) {
			t.Fatalf("handle %d holds %v, inserted %v", h, v, row)
		}
	}
	ref.Rebuild()
	want := searchHandles(t, ref, q, 20)
	if len(got) != len(want) {
		t.Fatalf("result sizes %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("result %d: %d vs %d", i, got[i], want[i])
		}
	}
}

// TestCompactionNeededThresholds pins the trigger predicate.
func TestCompactionNeededThresholds(t *testing.T) {
	const dim = 3
	rng := rand.New(rand.NewSource(13))
	ix := New(dim, Config{RebuildFraction: 100, CompactFraction: 0.5})
	ix.SetBackgroundCompaction(true)

	// No tree yet: triggers at 2*DefaultLeafSize buffered points.
	for i := 0; i < 199; i++ {
		ix.Insert(randLifted(rng, dim))
	}
	if ix.CompactionNeeded() {
		t.Fatal("needed at 199 buffered points before first tree")
	}
	ix.Insert(randLifted(rng, dim))
	if !ix.CompactionNeeded() {
		t.Fatal("not needed at 200 buffered points")
	}
	ix.Compact()
	if ix.CompactionNeeded() {
		t.Fatal("needed immediately after compaction")
	}

	// With a tree: CompactFraction (0.5), not RebuildFraction (100).
	for !ix.CompactionNeeded() {
		ix.Insert(randLifted(rng, dim))
	}
	// delta must just exceed 0.5*live: live=200+k, delta=k → k > 100+k/2.
	if delta := ix.BufferLen(); delta != 201 {
		t.Fatalf("triggered at delta %d, want 201", delta)
	}

	// CompactFraction falls back to RebuildFraction when unset.
	fb := New(dim, Config{RebuildFraction: 0.25})
	fb.SetBackgroundCompaction(true)
	for i := 0; i < 300; i++ {
		fb.Insert(randLifted(rng, dim))
	}
	fb.Compact()
	for !fb.CompactionNeeded() {
		fb.Insert(randLifted(rng, dim))
	}
	// live=300+k, delta=k: trigger at k > 0.25*(300+k) ⇒ 0.75k > 75 ⇒ k=101.
	if delta := fb.BufferLen(); delta != 101 {
		t.Fatalf("fallback triggered at delta %d, want 101", delta)
	}
}

// TestCompactionRaceKeepsCaptureIntact runs inserts and deletes — of tree
// handles, of delta handles the capture holds, of handles inserted since —
// on one goroutine while Build runs unlocked on another, the way the serving
// engine does. Under -race any write into what Build reads is reported; the
// captured delta rows are also compared byte for byte afterwards. The
// installed index must then answer exactly like a scan of the live set.
func TestCompactionRaceKeepsCaptureIntact(t *testing.T) {
	const dim = 9
	rng := rand.New(rand.NewSource(21))
	ref := newReference(dim) // the same mutations, scanned linearly
	for h := 0; h < 600; h++ {
		ref.insert(randLifted(rng, dim))
	}
	ix := NewFromMatrix(ref.rows.Clone(), Config{LeafSize: 20, Seed: 5})
	ix.SetBackgroundCompaction(true)
	insert := func() int32 {
		x := randLifted(rng, dim)
		ref.insert(x)
		return ix.Insert(x)
	}
	remove := func(h int32) {
		if !ix.Delete(h) || !ref.delete(h) {
			t.Fatalf("delete of live handle %d failed", h)
		}
	}
	for i := 0; i < 100; i++ {
		insert()
	}
	for _, h := range []int32{3, 99, 431, 620, 677} { // tree and delta tombstones before the capture
		remove(h)
	}

	c := ix.BeginCompaction()
	if c == nil || c.tree == nil || c.delta.N != 100 || c.fromTree != 597 || len(c.ids) != 695 {
		t.Fatalf("capture: %+v", c)
	}
	captured := slices.Clone(c.delta.Data)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Build(ix.cfg)
	}()
	var late []int32
	for i := 0; i < 300; i++ { // enough appends to reallocate the delta more than once
		late = append(late, insert())
		switch i % 60 {
		case 10:
			remove(int32(i)) // in the old tree
		case 30:
			remove(int32(600 + i/3)) // captured, still in the delta
		case 50:
			remove(late[i/2]) // inserted during the build
		}
	}
	<-done
	if !slices.Equal(captured, c.delta.Data) {
		t.Fatal("the captured delta rows changed during the build")
	}
	ix.Install(c)

	if ix.base != 700 || ix.delta.N != 300 || ix.treeN() != 695 || ix.treeDel != 10 {
		t.Fatalf("after install: base %d, delta %d, tree %d with %d tombstones", ix.base, ix.delta.N, ix.treeN(), ix.treeDel)
	}
	if cap(ix.delta.Data) != len(ix.delta.Data) || &ix.delta.Data[0] == &c.delta.Data[0] {
		t.Fatal("the new delta still sits in the folded delta's array")
	}
	for i := 0; i < 20; i++ {
		q := randLifted(rng, dim)
		var want []int32
		for _, r := range ref.search(q, 15) {
			want = append(want, r.ID)
		}
		if got := searchHandles(t, ix, q, 15); !slices.Equal(got, want) {
			t.Fatalf("query %d: %v, scan of the live set %v", i, got, want)
		}
	}
}

// TestCompactIsAFunctionOfTheLiveSet: whatever the history — rebuilds at
// other sizes, tombstones, rows gathered out of a tree that stored them in
// its own order — the tree a compaction builds is byte for byte the tree a
// fresh bulk load of the live rows in handle order builds.
func TestCompactIsAFunctionOfTheLiveSet(t *testing.T) {
	const dim = 7
	rng := rand.New(rand.NewSource(22))
	cfg := Config{LeafSize: 12, Seed: 9, RebuildFraction: 0.3}
	ix := New(dim, cfg)
	ref := newReference(dim)
	for op := 0; op < 1500; op++ {
		if op == 0 || rng.Intn(3) > 0 {
			x := randLifted(rng, dim)
			ref.insert(x)
			ix.Insert(x)
		} else {
			h := int32(rng.Intn(ref.rows.N))
			if ix.Delete(h) != ref.delete(h) {
				t.Fatalf("op %d: delete(%d) diverged", op, h)
			}
		}
		if op%400 == 399 {
			ix.SetBackgroundCompaction(op%800 == 399) // alternate inline rebuilds and explicit compactions
			ix.Compact()
		}
	}
	x := randLifted(rng, dim)
	ref.insert(x)
	ix.Insert(x)
	if !ix.Compact() {
		t.Fatal("Compact found nothing to fold after an insert")
	}
	if ix.treeDel != 0 || ix.delta.N != 0 || ix.base != ref.rows.N {
		t.Fatalf("compacted index still has a delta: %s", ix)
	}

	var live []int32
	for h, ok := range ref.alive {
		if ok {
			live = append(live, int32(h))
		}
	}
	fresh := NewFromMatrix(ref.rows.SubsetRows(live), cfg)
	var got, want bytes.Buffer
	if err := ix.tree.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := fresh.tree.Save(&want); err != nil {
		t.Fatal(err)
	}
	// The two trees differ in their labels alone: the compacted one speaks
	// handles, the fresh one the row numbers of the bulk load, row j of which
	// is handle live[j]. The id map follows the payload's magic and counters.
	ids := [2]int{8 + 5*4, 8 + 5*4 + 4*len(live)}
	if !bytes.Equal(got.Bytes()[:ids[0]], want.Bytes()[:ids[0]]) || !bytes.Equal(got.Bytes()[ids[1]:], want.Bytes()[ids[1]:]) {
		t.Fatal("compacted tree differs from a bulk load of the live rows in handle order")
	}
	_, handles := ix.tree.Rows()
	_, rows := fresh.tree.Rows()
	for p, h := range handles {
		if h != live[rows[p]] {
			t.Fatalf("position %d is labelled handle %d, the bulk load's row %d is handle %d", p, h, rows[p], live[rows[p]])
		}
	}
}

// TestChurnKeepsMemoryBounded replaces the live set ten times over with
// compaction on. What the index holds afterwards is one copy of the live
// rows, its own structures and a delta under the compaction threshold — not
// a row for every handle it ever issued.
func TestChurnKeepsMemoryBounded(t *testing.T) {
	const dim, live, turnover = 65, 3000, 10
	rng := rand.New(rand.NewSource(23))
	row := make([]float32, dim)
	next := func() []float32 {
		for j := range row[:dim-1] {
			row[j] = rng.Float32()*2 - 1
		}
		row[dim-1] = 1
		return row
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	ix := New(dim, Config{Seed: 1, CompactFraction: 0.05})
	ix.SetBackgroundCompaction(true)
	mutate := func(f func()) {
		f()
		if ix.CompactionNeeded() {
			ix.Compact()
		}
	}
	for i := 0; i < live; i++ {
		mutate(func() { ix.Insert(next()) })
	}
	for i := 0; i < live*turnover; i++ {
		mutate(func() { ix.Insert(next()) })
		mutate(func() { ix.Delete(int32(i)) }) // the oldest live handle
	}
	held := heap() - before
	if ix.N() != live || ix.Handles() != live*(turnover+1) {
		t.Fatalf("after the churn: %s, %d handles", ix, ix.Handles())
	}
	budget := uint64(1.3 * float64(int64(live*dim*4)+ix.IndexBytes()))
	if held > budget {
		t.Fatalf("index holds %d bytes after issuing %d handles; 1.3x (live rows + index) is %d", held, ix.Handles(), budget)
	}
	runtime.KeepAlive(ix)
}
