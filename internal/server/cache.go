package server

import (
	"container/list"
	"math"
	"sync"

	"p2h/internal/core"
)

// optsKey is the cache-relevant projection of SearchOptions: every field
// that changes what Search returns, none that doesn't (Filter and Profile
// make a query uncacheable and never reach the cache). A declarative Pred
// stays cacheable — its canonical encoding keys the entry, so two
// structurally equal predicates share one slot while an opaque Filter
// closure never could.
type optsKey struct {
	k, budget      int
	preference     core.Preference
	noBall, noCone bool
	pred           string // Pred.Canon(); "" when unfiltered
}

func makeOptsKey(o core.SearchOptions) optsKey {
	budget := o.Budget
	if budget < 0 {
		budget = 0 // any non-positive budget means unlimited; one key for all
	}
	pred := ""
	if o.Pred != nil {
		pred = o.Pred.Canon()
	}
	return optsKey{
		k:          o.K,
		budget:     budget,
		preference: o.Preference,
		noBall:     o.DisablePointBall,
		noCone:     o.DisablePointCone,
		pred:       pred,
	}
}

// hashKey is FNV-1a over the canonical query bytes and the option fields.
func hashKey(q []float32, ok optsKey) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64, bytes int) {
		for i := 0; i < bytes; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	for _, f := range q {
		mix(uint64(math.Float32bits(f)), 4)
	}
	mix(uint64(ok.k), 8)
	mix(uint64(ok.budget), 8)
	mix(uint64(ok.preference), 1)
	var flags uint64
	if ok.noBall {
		flags |= 1
	}
	if ok.noCone {
		flags |= 2
	}
	mix(flags, 1)
	mix(uint64(len(ok.pred)), 4)
	for i := 0; i < len(ok.pred); i++ {
		h ^= uint64(ok.pred[i])
		h *= prime64
	}
	return h
}

// entry is one cached answer. It owns private copies of the query and the
// results, so neither callers nor workers can mutate it afterwards.
type entry struct {
	hash  uint64
	epoch uint64 // mutation epoch the answer was computed at
	q     []float32
	opts  optsKey
	res   []core.Result
	stats core.Stats
}

// lru is a mutex-guarded bounded LRU keyed by query hash. Epoch staleness is
// checked lazily on lookup: a mutation does not sweep the map, it just makes
// every older entry unreturnable (and evicted on touch).
type lru struct {
	mu  sync.Mutex
	cap int
	ll  *list.List               // front = most recent
	m   map[uint64]*list.Element // one entry per hash; colliding keys overwrite
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, ll: list.New(), m: make(map[uint64]*list.Element, capacity)}
}

// get returns a copy of the cached results for (q, opts) if an entry exists,
// matches exactly, and was computed at the current epoch. Entries are
// immutable once installed, so only the lookup and recency bump run under
// the mutex; the defensive copy happens outside it.
func (c *lru) get(hash uint64, q []float32, opts optsKey, epoch uint64) ([]core.Result, core.Stats, bool) {
	c.mu.Lock()
	el, found := c.m[hash]
	if !found {
		c.mu.Unlock()
		return nil, core.Stats{}, false
	}
	e := el.Value.(*entry)
	if e.epoch != epoch {
		c.ll.Remove(el)
		delete(c.m, hash)
		c.mu.Unlock()
		return nil, core.Stats{}, false
	}
	if e.opts != opts || !equalQuery(e.q, q) {
		c.mu.Unlock()
		return nil, core.Stats{}, false // 64-bit hash collision: serve it live
	}
	c.ll.MoveToFront(el)
	c.mu.Unlock()
	res := make([]core.Result, len(e.res))
	copy(res, e.res)
	return res, e.stats, true
}

// put installs an answer computed at epoch, copying q and res.
func (c *lru) put(hash uint64, q []float32, opts optsKey, epoch uint64, res []core.Result, stats core.Stats) {
	e := &entry{
		hash:  hash,
		epoch: epoch,
		q:     append([]float32(nil), q...),
		opts:  opts,
		res:   append([]core.Result(nil), res...),
		stats: stats,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.m[hash]; found {
		if el.Value.(*entry).epoch > epoch {
			return // a slow worker must not clobber a post-mutation answer
		}
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.m[hash] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.m, back.Value.(*entry).hash)
	}
}

// len reports the number of live entries (stale ones included until
// touched).
func (c *lru) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func equalQuery(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
