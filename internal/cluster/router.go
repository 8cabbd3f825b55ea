package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p2h/internal/httpapi"
)

// Routing errors.
var (
	// ErrUnknownIndex reports a request for an index the partition map does
	// not declare.
	ErrUnknownIndex = errors.New("cluster: unknown index")
	// ErrNoMembers reports a shard whose every holder is unroutable.
	ErrNoMembers = errors.New("cluster: no member available for shard")
)

// routedShard is one shard's runtime state: its static placement plus the
// point count, learned from the id map or from the serving member's info
// (the budget split needs shard sizes).
type routedShard struct {
	cfg ShardConfig
	n   atomic.Int64 // points; 0 until learned
}

// routedIndex is one logical index's runtime state.
type routedIndex struct {
	name   string
	shards []*routedShard
	dim    atomic.Int64 // raw dimensionality; 0 until learned
}

// Router fans queries out over the partition map, hedges against slow
// members, and merges shard answers into the exact global top-k.
type Router struct {
	cfg     Config
	members map[string]*member
	indexes map[string]*routedIndex
	metrics *routerMetrics
	started time.Time

	hedgeOff                       bool
	hedgeDelay, hedgeMin, hedgeMax time.Duration
	maxTimeout, defaultTimeout     time.Duration

	proberStop chan struct{}
	proberDone chan struct{}
}

// NewRouter builds a router over a validated partition map. Call Start to
// begin health probing and Close to stop it.
func NewRouter(cfg Config) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	}}
	rt := &Router{
		cfg:     cfg,
		members: make(map[string]*member, len(cfg.Members)),
		indexes: make(map[string]*routedIndex, len(cfg.Indexes)),
		metrics: newRouterMetrics(),
		started: time.Now(),
	}
	rt.hedgeOff = cfg.Hedge.Disable
	rt.hedgeDelay, rt.hedgeMin, rt.hedgeMax = cfg.hedgeDefaults()
	opts := cfg.handlerOptions()
	rt.maxTimeout = opts.MaxTimeout
	if rt.maxTimeout <= 0 {
		rt.maxTimeout = httpapi.DefaultMaxTimeout
	}
	rt.defaultTimeout = opts.DefaultTimeout
	if rt.defaultTimeout <= 0 || rt.defaultTimeout > rt.maxTimeout {
		rt.defaultTimeout = rt.maxTimeout
	}
	for name, mc := range cfg.Members {
		rt.members[name] = newMember(name, mc, hc)
	}
	for name, im := range cfg.Indexes {
		ri := &routedIndex{name: name}
		for _, sc := range im.Shards {
			rs := &routedShard{cfg: sc}
			if len(sc.IDs) > 0 {
				rs.n.Store(int64(len(sc.IDs)))
			}
			ri.shards = append(ri.shards, rs)
		}
		rt.indexes[name] = ri
	}
	return rt, nil
}

// Start launches the background health prober. Safe to skip in tests that
// drive probeRound directly.
func (rt *Router) Start() {
	if rt.proberStop != nil {
		return
	}
	rt.proberStop = make(chan struct{})
	rt.proberDone = make(chan struct{})
	go rt.proberLoop(rt.proberStop, rt.proberDone)
}

// Close stops the prober and waits for it to exit.
func (rt *Router) Close() {
	if rt.proberStop == nil {
		return
	}
	close(rt.proberStop)
	<-rt.proberDone
	rt.proberStop, rt.proberDone = nil, nil
}

// MemberNames returns the member names, sorted.
func (rt *Router) MemberNames() []string {
	names := make([]string, 0, len(rt.members))
	for name := range rt.members {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// IndexNames returns the logical index names, sorted.
func (rt *Router) IndexNames() []string {
	names := make([]string, 0, len(rt.indexes))
	for name := range rt.indexes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// shardTargets orders a shard's holders for one attempt sequence: primary
// first, then replicas, stably re-ranked by observed health so routing
// prefers healthy members over degraded ones and avoids draining and down
// members while any alternative exists. Down members are dropped entirely
// unless every holder is down, in which case all are kept — a stale probe
// must not make a shard unroutable when a member already recovered.
func (rt *Router) shardTargets(sc ShardConfig) []*member {
	cands := make([]*member, 0, 1+len(sc.Replicas))
	cands = append(cands, rt.members[sc.Primary])
	for _, rep := range sc.Replicas {
		cands = append(cands, rt.members[rep])
	}
	ranks := make(map[*member]int, len(cands))
	alive := 0
	for _, m := range cands {
		ranks[m] = m.getState().rank()
		if m.getState() != StateDown {
			alive++
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return ranks[cands[i]] < ranks[cands[j]] })
	if alive > 0 && alive < len(cands) {
		cands = cands[:alive]
	}
	return cands
}

// hedgeDelayFor derives the hedge trigger for an attempt against m: the
// member's observed p99 (a hedge should fire only when this request is
// already in the member's latency tail), clamped to the configured window,
// or the configured fixed delay before any latency has been observed.
func (rt *Router) hedgeDelayFor(m *member) time.Duration {
	d := m.lat.p99()
	if d <= 0 {
		return rt.hedgeDelay
	}
	if d < rt.hedgeMin {
		d = rt.hedgeMin
	}
	if d > rt.hedgeMax {
		d = rt.hedgeMax
	}
	return d
}

// hedgedCall runs call against the ordered targets until one answers: the
// first target is tried immediately; a hedge attempt starts against the next
// target when the first exceeds its hedge delay; a retryable failure falls
// through to the next target immediately. The first success wins and cancels
// every other in-flight attempt. A non-retryable failure (bad request,
// expired deadline) fails the call at once — another member would answer the
// same.
func (rt *Router) hedgedCall(ctx context.Context, targets []*member, call func(context.Context, *member) (any, error)) (any, error) {
	if len(targets) == 0 {
		return nil, ErrNoMembers
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type attempt struct {
		v   any
		err error
		m   *member
	}
	ch := make(chan attempt, len(targets))
	launch := func(m *member) {
		go func() {
			v, err := call(cctx, m)
			ch <- attempt{v: v, err: err, m: m}
		}()
	}
	launch(targets[0])
	inflight, next := 1, 1

	var hedgeC <-chan time.Time
	if !rt.hedgeOff && next < len(targets) {
		t := time.NewTimer(rt.hedgeDelayFor(targets[0]))
		defer t.Stop()
		hedgeC = t.C
	}
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			if next < len(targets) {
				rt.metrics.hedges.Add(1)
				launch(targets[next])
				next++
				inflight++
			}
		case a := <-ch:
			inflight--
			if a.err == nil {
				if a.m != targets[0] {
					rt.metrics.hedgeWins.Add(1)
				}
				cancel()
				return a.v, nil
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if !retryable(a.err) {
				cancel()
				return nil, a.err
			}
			if next < len(targets) {
				rt.metrics.fallbacks.Add(1)
				launch(targets[next])
				next++
				inflight++
			} else if inflight == 0 {
				return nil, a.err
			}
		}
	}
}

// shardSize returns a shard's point count, learning it from a serving
// member's index info on first need (id-mapped shards know it statically).
func (rt *Router) shardSize(ctx context.Context, ri *routedIndex, si int) (int64, error) {
	rs := ri.shards[si]
	if n := rs.n.Load(); n > 0 {
		return n, nil
	}
	var lastErr error = ErrNoMembers
	for _, m := range rt.shardTargets(rs.cfg) {
		info, err := m.indexInfo(ctx, rs.cfg.Index)
		if err != nil {
			lastErr = err
			continue
		}
		rs.n.Store(int64(info.N))
		if ri.dim.Load() == 0 && info.Dim > 0 {
			ri.dim.Store(int64(info.Dim))
		}
		return int64(info.N), nil
	}
	return 0, lastErr
}

// indexSize returns the logical index's total point count (the budget split
// denominator), learning unknown shard sizes as needed.
func (rt *Router) indexSize(ctx context.Context, ri *routedIndex) (int64, error) {
	var total int64
	for si := range ri.shards {
		n, err := rt.shardSize(ctx, ri, si)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// shardOptions derives shard si's view of the request options, mirroring the
// in-process Sharded index's shardOpts: a positive candidate budget divides
// across shards in proportion to their sizes, ceiling division, floor one.
func shardOptions(opts httpapi.SearchOptionsJSON, shardN, total int64) httpapi.SearchOptionsJSON {
	if opts.Budget > 0 && total > 0 {
		share := (int64(opts.Budget)*shardN + total - 1) / total
		if share < 1 {
			share = 1
		}
		opts.Budget = int(share)
	}
	return opts
}

// remainingMS converts a context's remaining deadline budget into the wire
// timeout_ms forwarded to a member, so the deadline the router promised its
// client propagates through the fan-out (a floor of one keeps an
// about-to-expire request from turning into "no timeout").
func remainingMS(ctx context.Context) int {
	d, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := int(time.Until(d) / time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	return ms
}

// searchDeadline derives the request deadline from the client's timeout_ms
// under the router's caps, exactly as a member daemon would.
func (rt *Router) searchDeadline(ctx context.Context, timeoutMS int) (context.Context, context.CancelFunc) {
	d := time.Duration(timeoutMS) * time.Millisecond
	if d <= 0 {
		d = rt.defaultTimeout
	}
	if d > rt.maxTimeout {
		d = rt.maxTimeout
	}
	return context.WithDeadline(ctx, time.Now().Add(d))
}

// fanOut is what Search and SearchBatch share: it resolves the index, splits
// a positive budget across its shards, and asks every shard at once — each
// through hedgedCall over its ordered holders, with the deadline left as the
// request's timeout_ms. send makes one shard's request with the options it is
// given and returns the shard's answer as one result list per query (nq of
// them) plus its work counters. An exact answer needs every shard, so any
// shard's failure fails the call. fanOut returns, per query, the shards'
// lists translated to global ids and merged into the top k, and the counters
// summed over the shards.
func (rt *Router) fanOut(ctx context.Context, name string, opts httpapi.SearchOptionsJSON, nq int,
	send func(ctx context.Context, m *member, index string, opts httpapi.SearchOptionsJSON) ([][]httpapi.ResultJSON, httpapi.StatsJSON, error),
) ([][]httpapi.ResultJSON, httpapi.StatsJSON, error) {
	var stats httpapi.StatsJSON
	ri, ok := rt.indexes[name]
	if !ok {
		return nil, stats, fmt.Errorf("%w: %q", ErrUnknownIndex, name)
	}
	var total int64
	if opts.Budget > 0 {
		var err error
		if total, err = rt.indexSize(ctx, ri); err != nil {
			return nil, stats, err
		}
	}
	type answer struct {
		lists [][]httpapi.ResultJSON
		stats httpapi.StatsJSON
	}
	answers := make([]answer, len(ri.shards))
	errs := make([]error, len(ri.shards))
	var wg sync.WaitGroup
	for si := range ri.shards {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			rs := ri.shards[si]
			sopts := shardOptions(opts, rs.n.Load(), total)
			v, err := rt.hedgedCall(ctx, rt.shardTargets(rs.cfg), func(c context.Context, m *member) (any, error) {
				o := sopts
				o.TimeoutMS = remainingMS(c)
				lists, st, err := send(c, m, rs.cfg.Index, o)
				return answer{lists, st}, err
			})
			if err != nil {
				errs[si] = err
				return
			}
			a := v.(answer)
			if len(a.lists) != nq {
				errs[si] = fmt.Errorf("cluster: shard %q answered %d results for %d queries", rs.cfg.Index, len(a.lists), nq)
				return
			}
			for _, l := range a.lists {
				if err := translateIDs(rs.cfg, l); err != nil {
					errs[si] = err
					return
				}
			}
			answers[si] = a
		}(si)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, stats, err
		}
	}
	k := opts.K
	if k <= 0 {
		k = 1
	}
	merged := make([][]httpapi.ResultJSON, nq)
	lists := make([][]httpapi.ResultJSON, len(ri.shards))
	for qi := range merged {
		for si, a := range answers {
			lists[si] = a.lists[qi]
		}
		merged[qi] = mergeTopK(lists, k)
	}
	for _, a := range answers {
		addStats(&stats, a.stats)
	}
	return merged, stats, nil
}

// Search fans one query out over the index's shards and merges the exact
// top-k. Results are byte-identical to the in-process Sharded index over the
// same partition: same per-shard budget split, same (Dist, ID) merge order,
// same truncation.
func (rt *Router) Search(ctx context.Context, name string, req httpapi.SearchRequest) (*httpapi.SearchResponse, error) {
	merged, stats, err := rt.fanOut(ctx, name, req.SearchOptionsJSON, 1,
		func(c context.Context, m *member, index string, opts httpapi.SearchOptionsJSON) ([][]httpapi.ResultJSON, httpapi.StatsJSON, error) {
			r := req
			r.SearchOptionsJSON = opts
			resp, err := m.search(c, index, r)
			if err != nil {
				return nil, httpapi.StatsJSON{}, err
			}
			return [][]httpapi.ResultJSON{resp.Results}, resp.Stats, nil
		})
	if err != nil {
		return nil, err
	}
	return &httpapi.SearchResponse{Results: merged[0], Stats: stats}, nil
}

// SearchBatch fans a whole batch out — one batch request per shard, so each
// member admits and chunks it as one batch — and merges per query.
// Results are byte-identical to per-query Search calls and to the in-process
// Sharded index's SearchBatch.
func (rt *Router) SearchBatch(ctx context.Context, name string, req httpapi.BatchSearchRequest) (*httpapi.BatchSearchResponse, error) {
	merged, stats, err := rt.fanOut(ctx, name, req.SearchOptionsJSON, len(req.Queries),
		func(c context.Context, m *member, index string, opts httpapi.SearchOptionsJSON) ([][]httpapi.ResultJSON, httpapi.StatsJSON, error) {
			r := req
			r.SearchOptionsJSON = opts
			resp, err := m.searchBatch(c, index, r)
			if err != nil {
				return nil, httpapi.StatsJSON{}, err
			}
			return resp.Results, resp.Stats, nil
		})
	if err != nil {
		return nil, err
	}
	return &httpapi.BatchSearchResponse{Results: merged, Stats: stats}, nil
}

// Info describes one logical index in the member daemons' wire shape (kind
// "cluster"), learning dimensionality and point counts from the members as
// needed — so clients built for a single daemon work against a router
// unchanged.
func (rt *Router) Info(ctx context.Context, name string) (httpapi.IndexInfoResponse, error) {
	ri, ok := rt.indexes[name]
	if !ok {
		return httpapi.IndexInfoResponse{}, fmt.Errorf("%w: %q", ErrUnknownIndex, name)
	}
	total, err := rt.indexSize(ctx, ri)
	if err != nil {
		return httpapi.IndexInfoResponse{}, err
	}
	if ri.dim.Load() == 0 {
		// Shard sizes can all be statically known (id maps), in which case no
		// member was consulted yet; learn the dimensionality explicitly.
		for _, m := range rt.shardTargets(ri.shards[0].cfg) {
			info, ierr := m.indexInfo(ctx, ri.shards[0].cfg.Index)
			if ierr == nil {
				ri.dim.Store(int64(info.Dim))
				break
			}
			err = ierr
		}
		if ri.dim.Load() == 0 {
			return httpapi.IndexInfoResponse{}, err
		}
	}
	return httpapi.IndexInfoResponse{
		Name: name,
		Kind: "cluster",
		Dim:  int(ri.dim.Load()),
		N:    int(total),
	}, nil
}
