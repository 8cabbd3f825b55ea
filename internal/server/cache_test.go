package server

import (
	"math"
	"sync"
	"sync/atomic"

	"testing"

	"p2h/internal/attr"
	"p2h/internal/core"
)

func key(v float32) ([]float32, optsKey, uint64) {
	q := []float32{v, 0, 0.5}
	ok := makeOptsKey(core.SearchOptions{K: 3})
	return q, ok, hashKey(q, ok)
}

func TestLRUGetPutRoundTrip(t *testing.T) {
	c := newLRU(4)
	q, ok, h := key(1)
	res := []core.Result{{ID: 7, Dist: 0.25}}
	st := core.Stats{Candidates: 9}
	c.put(h, q, ok, 0, res, st)
	got, gotSt, hit := c.get(h, q, ok, 0)
	if !hit || len(got) != 1 || got[0] != res[0] || gotSt != st {
		t.Fatalf("round trip: hit=%v res=%v stats=%+v", hit, got, gotSt)
	}
	// The copy returned must be private: corrupting it leaves the cache intact.
	got[0].ID = 99
	again, _, _ := c.get(h, q, ok, 0)
	if again[0].ID != 7 {
		t.Fatalf("cache entry aliased by caller: %v", again)
	}
}

func TestLRUEpochInvalidation(t *testing.T) {
	c := newLRU(4)
	q, ok, h := key(2)
	c.put(h, q, ok, 5, []core.Result{{ID: 1}}, core.Stats{})
	if _, _, hit := c.get(h, q, ok, 6); hit {
		t.Fatal("stale epoch served")
	}
	if c.len() != 0 {
		t.Fatalf("stale entry kept: len %d", c.len())
	}
}

func TestLRUOptionsDistinguished(t *testing.T) {
	c := newLRU(4)
	q := []float32{1, 0, 0.5}
	k3 := makeOptsKey(core.SearchOptions{K: 3})
	k5 := makeOptsKey(core.SearchOptions{K: 5})
	c.put(hashKey(q, k3), q, k3, 0, []core.Result{{ID: 1}}, core.Stats{})
	if _, _, hit := c.get(hashKey(q, k5), q, k5, 0); hit {
		t.Fatal("different K served the same entry")
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := newLRU(2)
	qa, oa, ha := key(10)
	qb, ob, hb := key(11)
	qc, oc, hc := key(12)
	c.put(ha, qa, oa, 0, []core.Result{{ID: 1}}, core.Stats{})
	c.put(hb, qb, ob, 0, []core.Result{{ID: 2}}, core.Stats{})
	c.get(ha, qa, oa, 0) // touch a, making b the eviction victim
	c.put(hc, qc, oc, 0, []core.Result{{ID: 3}}, core.Stats{})
	if _, _, hit := c.get(ha, qa, oa, 0); !hit {
		t.Fatal("recently used entry evicted")
	}
	if _, _, hit := c.get(hb, qb, ob, 0); hit {
		t.Fatal("least recent entry kept")
	}
	if c.len() != 2 {
		t.Fatalf("len %d", c.len())
	}
}

func TestLRUReplaceSameHash(t *testing.T) {
	c := newLRU(2)
	q, ok, h := key(3)
	c.put(h, q, ok, 0, []core.Result{{ID: 1}}, core.Stats{})
	c.put(h, q, ok, 0, []core.Result{{ID: 2}}, core.Stats{})
	res, _, hit := c.get(h, q, ok, 0)
	if !hit || res[0].ID != 2 || c.len() != 1 {
		t.Fatalf("replace: hit=%v res=%v len=%d", hit, res, c.len())
	}
}

func TestLRUPutKeepsNewerEpoch(t *testing.T) {
	c := newLRU(4)
	q, ok, h := key(4)
	c.put(h, q, ok, 2, []core.Result{{ID: 2}}, core.Stats{})
	c.put(h, q, ok, 1, []core.Result{{ID: 1}}, core.Stats{}) // slow straggler
	res, _, hit := c.get(h, q, ok, 2)
	if !hit || res[0].ID != 2 {
		t.Fatalf("stale put clobbered fresh entry: hit=%v res=%v", hit, res)
	}
}

func TestOptsKeyCanonicalizesUnlimitedBudget(t *testing.T) {
	zero := makeOptsKey(core.SearchOptions{K: 3})
	neg := makeOptsKey(core.SearchOptions{K: 3, Budget: -7})
	if zero != neg {
		t.Fatalf("Budget 0 and -7 both mean unlimited but key differently: %+v vs %+v", zero, neg)
	}
	if lim := makeOptsKey(core.SearchOptions{K: 3, Budget: 10}); lim == zero {
		t.Fatal("limited budget keyed as unlimited")
	}
}

func TestHashKeySensitivity(t *testing.T) {
	q, ok, h := key(1)
	q2 := []float32{1, 0, 0.5000001}
	if hashKey(q2, ok) == h {
		t.Fatal("query perturbation not reflected in hash")
	}
	ok2 := ok
	ok2.budget = 100
	if hashKey(q, ok2) == h {
		t.Fatal("budget not reflected in hash")
	}
	ok3 := ok
	ok3.noCone = true
	if hashKey(q, ok3) == h {
		t.Fatal("ablation flag not reflected in hash")
	}
}

func TestOptsKeyPredCanonical(t *testing.T) {
	a := makeOptsKey(core.SearchOptions{K: 3, Pred: &attr.Pred{Tag: "hot"}})
	b := makeOptsKey(core.SearchOptions{K: 3, Pred: &attr.Pred{Tag: "hot"}})
	if a != b {
		t.Fatalf("equal predicates behind distinct pointers keyed differently: %+v vs %+v", a, b)
	}
	if c := makeOptsKey(core.SearchOptions{K: 3, Pred: &attr.Pred{Tag: "cold"}}); a == c {
		t.Fatal("different predicates share a key")
	}
	plain := makeOptsKey(core.SearchOptions{K: 3})
	if a == plain {
		t.Fatal("filtered and unfiltered searches share a key")
	}
	q := []float32{1, 0, 0.5}
	if hashKey(q, a) == hashKey(q, plain) {
		t.Fatal("predicate not reflected in hash")
	}
}

// TestCachePredicateHit is the regression for predicate cacheability: a
// repeated filtered query must be served from the cache (keyed by the
// predicate's canonical encoding, not its pointer), while queries with a
// different predicate — or none — must not.
func TestCachePredicateHit(t *testing.T) {
	v := &versionIndex{val: 1}
	e := New(v, nil, Config{Workers: 1, CacheEntries: 16})
	defer e.Close()

	q := []float32{1, 0, 0}
	hot := func() core.SearchOptions {
		// A fresh Pred value every call: a hit proves canonical keying.
		return core.SearchOptions{K: 1, Pred: &attr.Pred{Tag: "hot"}}
	}
	first, _ := e.Search(q, hot())
	again, _ := e.Search(q, hot())
	if st := e.Stats(); st.CacheHits != 1 {
		t.Fatalf("repeated predicate query missed the cache: hits=%d", st.CacheHits)
	}
	if len(first) != 1 || len(again) != 1 || first[0] != again[0] {
		t.Fatalf("cached filtered answer differs: %v vs %v", first, again)
	}
	e.Search(q, core.SearchOptions{K: 1, Pred: &attr.Pred{Tag: "cold"}})
	if st := e.Stats(); st.CacheHits != 1 {
		t.Fatalf("different predicate served a cached entry: hits=%d", st.CacheHits)
	}
	e.Search(q, core.SearchOptions{K: 1})
	if st := e.Stats(); st.CacheHits != 1 {
		t.Fatalf("unfiltered query served a filtered entry: hits=%d", st.CacheHits)
	}
}

// versionIndex is a one-point index whose answer encodes the state of the
// last applied mutation: Insert(p) sets the value to p[0], a live Delete
// bumps it by 0.5. The engine's RWMutex is the only synchronization — that
// is exactly the contract under test.
type versionIndex struct {
	val     float64
	handles int32
}

func (v *versionIndex) Search(q []float32, opts core.SearchOptions) ([]core.Result, core.Stats) {
	return []core.Result{{ID: 0, Dist: v.val}}, core.Stats{Candidates: 1}
}

func (v *versionIndex) Dim() int { return 2 }

func (v *versionIndex) Insert(p []float32) int32 {
	v.val = float64(p[0])
	v.handles++
	return v.handles
}

func (v *versionIndex) Delete(h int32) bool {
	v.val += 0.5
	return true
}

// TestCacheEpochNoStaleHitsUnderConcurrentMutation races searchers against a
// mutator through one engine (run it with -race): every answer the cache
// serves must reflect at least every mutation that completed before the
// search was submitted. The mutated state is strictly monotonic, so a stale
// post-mutation cache hit shows up as an answer below the high-water mark
// the searcher read before submitting.
func TestCacheEpochNoStaleHitsUnderConcurrentMutation(t *testing.T) {
	v := &versionIndex{}
	e := New(v, v, Config{Workers: 4, CacheEntries: 128})
	defer e.Close()

	q := []float32{1, 0, 0}     // one fixed query, so the cache is hammered
	var highWater atomic.Uint64 // float64 bits of the last applied state

	seed := func(val float64) {
		if _, err := e.Insert([]float32{float32(val), 0}); err != nil {
			t.Fatal(err)
		}
		highWater.Store(math.Float64bits(val))
	}
	seed(1)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the mutator: inserts raise the value, deletes nudge it up
		defer wg.Done()
		for i := 2; i <= 200; i++ {
			val := float64(i)
			if _, err := e.Insert([]float32{float32(i), 0}); err != nil {
				t.Error(err)
				return
			}
			if i%3 == 0 {
				if _, err := e.Delete(0); err != nil {
					t.Error(err)
					return
				}
				val += 0.5
			}
			// Publish only after the mutation call returned: from here on,
			// every newly submitted search must observe at least this state.
			highWater.Store(math.Float64bits(val))
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				floor := math.Float64frombits(highWater.Load())
				res, _ := e.Search(q, core.SearchOptions{K: 1})
				if len(res) != 1 {
					t.Errorf("no result")
					return
				}
				if res[0].Dist < floor {
					t.Errorf("stale post-mutation answer: got state %v, mutation %v had completed",
						res[0].Dist, floor)
					return
				}
			}
		}()
	}
	wg.Wait()

	st := e.Stats()
	if st.CacheHits == 0 {
		t.Fatal("the cache was never hit; the test exercised nothing")
	}
	if st.Epoch == 0 || st.Inserts != 200 || st.Deletes != 66 {
		t.Fatalf("unexpected mutation counts: %+v", st)
	}
}
