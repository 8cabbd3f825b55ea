package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	p2h "p2h"
	"p2h/internal/cluster"
	"p2h/internal/httpapi"
)

// fixture is the set-up every workload shares: the same data, queries and
// ground truth everywhere, so the difference between two workloads is the
// cost of the layers between them. Index builds and daemons are made on first
// use and kept; a workload's set-up touches only what it measures.
//
// The corpus and the query set are fixed, as the paper's Sift corpus and its
// query file are: --seed drives the traffic — the order the queries and
// batches are sent in, the Zipf draws and perturbed pool of http-serve, the
// delete picks of dyn-rw. Two seeds therefore do the same kind and amount of work in
// a different order, which is what lets ten seeds measure the machine's
// run-to-run spread and not the difference between two data sets, and lets
// recall and the work counters be compared exactly.
type fixture struct {
	cfg     config
	data    *p2h.Matrix
	queries *p2h.Matrix
	gt      [][]p2h.Result
	attrs   []p2h.PointAttrs
	dir     string // scratch directory inside the working directory

	mu     sync.Mutex
	trees  map[string]p2h.Index
	buildS map[string]float64
	shards *shardSet
	served *servedQueries
	stops  []func()
}

// corpusSeed generates the fixed corpus and query set and seeds every index
// build; see fixture.
const corpusSeed = 1

// The tree variants the workloads and probes search.
const (
	treeBC    = "bctree"       // plain BC-Tree: the paper's index
	treeBall  = "balltree"     // Ball-Tree
	treeQuant = "bctree-quant" // BC-Tree with the 8-bit leaf mirror
	treeAttr  = "bctree-attr"  // BC-Tree with attribute payloads attached
)

func newFixture(cfg config) (*fixture, error) {
	// The driver's checkout is the only place the benchmark may write.
	dir, err := os.MkdirTemp(".", ".p2hbench-")
	if err != nil {
		return nil, err
	}
	fx := &fixture{cfg: cfg, dir: dir, trees: map[string]p2h.Index{}, buildS: map[string]float64{}}
	fx.data = p2h.Dedup(p2h.GenerateDataset("Sift", cfg.n, corpusSeed))
	fx.queries = p2h.GenerateQueries(fx.data, numQueries, corpusSeed+1)
	// p2h.GroundTruth is this scan on one goroutine; the worker loop of
	// SearchBatch over the same LinearScan gives the same answers sooner.
	fx.gt = p2h.SearchBatch(p2h.NewLinearScan(fx.data), fx.queries, p2h.SearchOptions{K: topK}, cfg.procs)
	// Tags by row id modulo, as cmd/p2hbench -filter assigns them.
	fx.attrs = make([]p2h.PointAttrs, fx.data.N)
	for i := range fx.attrs {
		var tags []string
		if i%100 == 0 {
			tags = append(tags, "sel1")
		}
		if i%10 == 0 {
			tags = append(tags, "sel10")
		}
		if i%2 == 0 {
			tags = append(tags, "sel50")
		}
		fx.attrs[i] = p2h.PointAttrs{Tags: tags}
	}
	return fx, nil
}

// order is the seed's visiting order of n items of work.
func (fx *fixture) order(n int) []int {
	return rand.New(rand.NewSource(fx.cfg.seed)).Perm(n)
}

// onClose registers a shutdown step; close runs them newest first.
func (fx *fixture) onClose(stop func()) {
	fx.mu.Lock()
	fx.stops = append(fx.stops, stop)
	fx.mu.Unlock()
}

func (fx *fixture) close() {
	for i := len(fx.stops) - 1; i >= 0; i-- {
		fx.stops[i]()
	}
	fx.stops = nil
	os.RemoveAll(fx.dir)
}

func (fx *fixture) spec(kind string) p2h.Spec {
	return p2h.Spec{Kind: kind, Seed: corpusSeed}
}

// tree returns the named tree variant, building it on first use.
func (fx *fixture) tree(name string) (p2h.Index, error) {
	fx.mu.Lock()
	ix := fx.trees[name]
	fx.mu.Unlock()
	if ix != nil {
		return ix, nil
	}
	spec := fx.spec(p2h.KindBCTree)
	switch name {
	case treeBall:
		spec.Kind = p2h.KindBallTree
	case treeQuant:
		spec.Quantize = true
	}
	start := time.Now()
	ix, err := p2h.New(fx.data, spec)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", name, err)
	}
	if name == treeAttr {
		if err := p2h.AttachAttributes(ix, fx.attrs); err != nil {
			return nil, err
		}
	}
	fx.mu.Lock()
	fx.trees[name], fx.buildS[name] = ix, time.Since(start).Seconds()
	fx.mu.Unlock()
	return ix, nil
}

// buildTrees builds the named variants on up to procs goroutines.
func (fx *fixture) buildTrees(names ...string) error {
	errs := make([]error, len(names))
	sem := make(chan struct{}, fx.cfg.procs) // counting semaphore: one slot per core
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			_, errs[i] = fx.tree(name)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// queryBatch returns queries [lo, lo+n) as a matrix sharing the fixture's
// storage, wrapping around the query set.
func (fx *fixture) queryBatch(lo, n int) *p2h.Matrix {
	lo %= fx.queries.N
	if lo+n > fx.queries.N {
		lo = fx.queries.N - n
	}
	d := fx.queries.D
	return &p2h.Matrix{Data: fx.queries.Data[lo*d : (lo+n)*d], N: n, D: d}
}

// budget is a candidate budget of the given share of the data set.
func (fx *fixture) budget(share float64) int {
	return max(1, int(share*float64(fx.data.N)))
}

// queryPool widens the query set to size entries for the cache-exercising
// workloads: the base queries first, then seeded perturbations of them (the
// normal nudged and rescaled to unit length, the offset kept).
func (fx *fixture) queryPool(size int) *p2h.Matrix {
	rng := rand.New(rand.NewSource(fx.cfg.seed + 2))
	d := fx.queries.D
	pool := p2h.NewMatrix(size, d)
	copy(pool.Data, fx.queries.Data)
	for i := fx.queries.N; i < size; i++ {
		row := pool.Row(i)
		copy(row, fx.queries.Row(i%fx.queries.N))
		var norm float64
		for j := 0; j < d-1; j++ {
			row[j] += float32(rng.NormFloat64() * 0.02)
			norm += float64(row[j]) * float64(row[j])
		}
		scale := float32(1 / math.Sqrt(norm))
		for j := 0; j < d-1; j++ {
			row[j] *= scale
		}
	}
	return pool
}

// daemon is one in-process p2hd: an httpapi.Manager behind a loopback
// listener, exactly as internal/cluster's tests stand members up.
type daemon struct {
	mgr     *httpapi.Manager
	handler http.Handler
	url     string
}

// startDaemon serves the given name -> container map under opts (the zero
// value is the daemon's default) and registers its shutdown with the fixture.
func (fx *fixture) startDaemon(containers map[string]string, opts p2h.ServerOptions) (*daemon, error) {
	mgr := httpapi.NewManager(opts, 5*time.Second)
	for name, path := range containers {
		if _, _, err := mgr.Load(name, httpapi.IndexConfig{Path: path}, false); err != nil {
			_ = mgr.Close(context.Background())
			return nil, fmt.Errorf("load %s: %w", name, err)
		}
	}
	d := &daemon{mgr: mgr, handler: httpapi.NewHandler(mgr)}
	url, stop, err := serveLoopback(d.handler)
	if err != nil {
		_ = mgr.Close(context.Background())
		return nil, err
	}
	d.url = url
	fx.onClose(func() {
		stop()
		_ = mgr.Close(context.Background())
	})
	return d, nil
}

// serveLoopback serves h on 127.0.0.1:0 and returns its base URL and a stop
// function that returns once the server goroutine has exited.
func serveLoopback(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	return "http://" + ln.Addr().String(), func() {
		_ = srv.Close()
		<-done
	}, nil
}

// saveContainer writes ix under the scratch directory and returns the path.
func (fx *fixture) saveContainer(name string, ix p2h.Index) (string, error) {
	path := filepath.Join(fx.dir, name+".p2h")
	if err := p2h.SaveFile(path, ix); err != nil {
		return "", fmt.Errorf("save %s: %w", name, err)
	}
	return path, nil
}

// bcDaemon serves the plain BC-Tree as index "bench" on one daemon.
func (fx *fixture) bcDaemon(opts p2h.ServerOptions) (*daemon, error) {
	bc, err := fx.tree(treeBC)
	if err != nil {
		return nil, err
	}
	path, err := fx.saveContainer("bench", bc)
	if err != nil {
		return nil, err
	}
	return fx.startDaemon(map[string]string{"bench": path}, opts)
}

// routedCluster is two member daemons, each serving one shard of the
// Sharded plan, a router over them, and the in-process Sharded index over
// the same plan that the routed answers must equal.
type routedCluster struct {
	*shardSet
	members []*daemon
	router  *cluster.Router
	handler http.Handler
	url     string
}

// shardSet is what every cluster over this fixture shares: the Sharded
// oracle, its plan, and the shard containers by member-side index name.
type shardSet struct {
	oracle p2h.Index
	plan   [][]int32
	names  []string
	paths  []string
}

const routedShards = 2

// shardedBuild builds, once, the in-process Sharded oracle and one container
// per shard of its plan, each shard exactly as Sharded builds it: the plan's
// rows, the derived seed (see p2h.ShardPlan).
func (fx *fixture) shardedBuild() (*shardSet, error) {
	if fx.shards != nil {
		return fx.shards, nil
	}
	spec := fx.spec(p2h.KindSharded)
	spec.Shards = routedShards
	set := &shardSet{plan: p2h.ShardPlan(fx.data, spec)}
	var err error
	if set.oracle, err = p2h.New(fx.data, spec); err != nil {
		return nil, err
	}
	for si, rows := range set.plan {
		ix, err := p2h.New(fx.data.SubsetRows(rows), p2h.Spec{
			Kind: p2h.KindBCTree, Seed: spec.Seed + int64(si) + 1,
		})
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("bench-s%d", si)
		path, err := fx.saveContainer(name, ix)
		if err != nil {
			return nil, err
		}
		set.names, set.paths = append(set.names, name), append(set.paths, path)
	}
	fx.shards = set
	return set, nil
}

// startCluster stands up one member daemon per shard, under opts, and a
// router over them (no replicas, so hedging never fires).
func (fx *fixture) startCluster(opts p2h.ServerOptions) (*routedCluster, error) {
	set, err := fx.shardedBuild()
	if err != nil {
		return nil, err
	}
	rc := &routedCluster{shardSet: set}
	ccfg := cluster.Config{
		Members: map[string]cluster.MemberConfig{},
		Indexes: map[string]cluster.IndexMap{},
	}
	var im cluster.IndexMap
	for si, name := range set.names {
		d, err := fx.startDaemon(map[string]string{name: set.paths[si]}, opts)
		if err != nil {
			return nil, err
		}
		member := fmt.Sprintf("m%d", si)
		rc.members = append(rc.members, d)
		ccfg.Members[member] = cluster.MemberConfig{URL: d.url}
		im.Shards = append(im.Shards, cluster.ShardConfig{Index: name, Primary: member, IDs: set.plan[si]})
	}
	ccfg.Indexes["bench"] = im
	if rc.router, err = cluster.NewRouter(ccfg); err != nil {
		return nil, err
	}
	rc.router.Start()
	rc.handler = cluster.NewHandler(rc.router)
	url, stop, err := serveLoopback(rc.handler)
	if err != nil {
		rc.router.Close()
		return nil, err
	}
	rc.url = url
	fx.onClose(func() {
		stop()
		rc.router.Close()
	})
	return rc, nil
}

// dynStack is a durable serving stack over a dynamic index: container on
// disk, write-ahead log beside it, p2h.Server in front.
type dynStack struct {
	container string
	ix        *p2h.Dynamic
	wal       *p2h.WAL
	srv       *p2h.Server
}

// dynCompactFraction is the background-compaction trigger of every dynamic
// stack here: tighter than the 0.25 default so that a window at a write rate
// the serving path sustains still crosses several compaction cycles.
const dynCompactFraction = 0.05

// dynSeedPoints is how many of the data set's first rows seed the dynamic
// index; the rest are the writer's inserts.
func (fx *fixture) dynSeedPoints() int { return fx.data.N * 2 / 5 }

// startDynamic builds a dynamic index over the first dynSeedPoints rows,
// saves its container, attaches a WAL in the given mode and serves it with
// background compaction. The caller owns the stack and must stop it.
func (fx *fixture) startDynamic(name string, mode p2h.WALSyncMode) (*dynStack, error) {
	seedRows := make([]int32, fx.dynSeedPoints())
	for i := range seedRows {
		seedRows[i] = int32(i)
	}
	spec := fx.spec(p2h.KindDynamic)
	spec.CompactFraction = dynCompactFraction
	ix, err := p2h.New(fx.data.SubsetRows(seedRows), spec)
	if err != nil {
		return nil, err
	}
	st := &dynStack{ix: ix.(*p2h.Dynamic)}
	if st.container, err = fx.saveContainer(name, ix); err != nil {
		return nil, err
	}
	if st.wal, err = p2h.AttachWAL(ix, p2h.WALPath(st.container), mode); err != nil {
		return nil, err
	}
	st.srv = p2h.NewServer(ix, p2h.ServerOptions{WAL: st.wal, BackgroundCompaction: true})
	return st, nil
}

// stop drains the server and closes the log; safe to call twice.
func (st *dynStack) stop() error {
	if st.srv == nil {
		return nil
	}
	st.srv.Close()
	st.srv = nil
	return st.wal.Close()
}
