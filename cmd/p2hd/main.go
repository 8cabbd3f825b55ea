// Command p2hd is the P2HNNS service daemon: it serves any number of named
// indexes over an HTTP API — search and batched search through the
// zero-allocation serving engine, insert/delete for dynamic indexes, atomic
// snapshots, hot load/swap/unload without a restart, Prometheus metrics and
// a health endpoint — and shuts down gracefully, draining in-flight queries.
//
// Usage:
//
//	p2hd -config p2hd.json
//	p2hd -listen 127.0.0.1:8080 -name trees -load index.p2h
//	p2hd -name fresh -index bctree -spec '{"leaf_size":50}' -data data.fvecs
//	p2hd -name live -load dyn.p2h -wal      # durable dynamic serving
//	p2hd -listen :8080                      # empty: hot-load indexes via the API
//
// The config file declares the listen address, engine tuning and the indexes
// to stand up at startup:
//
//	{
//	  "listen": "127.0.0.1:8080",
//	  "drain_timeout": "10s",
//	  "server": {"workers": 8, "cache_entries": 4096, "max_queue": 512},
//	  "indexes": {
//	    "trees": {"path": "trees.p2h"},
//	    "live":  {"spec": {"kind": "dynamic", "dim": 128}, "data": ""}
//	  }
//	}
//
// Flags override the config file where both are given. The API surface is
// documented on p2h/internal/httpapi.NewHandler; see the repository README
// for curl examples.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	p2h "p2h"
	"p2h/internal/faultinject"
	"p2h/internal/httpapi"
)

// notifyReady is invoked with the bound address once the daemon accepts
// connections; tests override it to learn the port of a ":0" listen.
var notifyReady = func(addr string) {}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("p2hd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode       = fs.String("mode", "serve", "\"serve\" (index daemon) or \"router\" (cluster scatter-gather front; -config names the partition map)")
		listen     = fs.String("listen", "", "address to bind (default: the config file's, else 127.0.0.1:8080)")
		configPath = fs.String("config", "", "JSON config file declaring indexes and tuning")
		name       = fs.String("name", "default", "name of the index declared by -load / -index / -spec / -data")
		loadPath   = fs.String("load", "", "serve a saved .p2h container under -name")
		indexKind  = fs.String("index", "", "index kind to build under -name ("+strings.Join(p2h.Kinds(), ", ")+")")
		specJSON   = fs.String("spec", "", "p2h.Spec as JSON for the -name index (-index overrides its kind)")
		dataPath   = fs.String("data", "", "fvecs data file the -spec index is built over")
		wal        = fs.Bool("wal", false, "journal the -load index's mutations to a write-ahead log at <path>.wal, replaying any pending records at startup")
		walSync    = fs.String("walsync", "", "write-ahead log fsync policy: always (default) or none")
		workers    = fs.Int("workers", 0, "worker slots per index: searches executing at once (0: the config file's, else GOMAXPROCS)")
		cacheSize  = fs.Int("cache", 0, "result cache entries per index (0: the config file's, else 1024; negative: disabled)")
		drain      = fs.Duration("drain", 0, "shutdown/unload drain bound (0: the config file's, else 10s)")
		maxQueue   = fs.Int("maxqueue", 0, "admitted-but-unfinished request cap per index (0: the config file's, else 64*workers; negative: shedding disabled)")
		maxTimeout = fs.Duration("maxtimeout", 0, "cap on client timeout_ms, backstop for requests without one (0: the config file's, else 30s)")
		sloTarget  = fs.Duration("slo", 0, "p99 latency objective; breaching it degrades search budgets until load recedes (0: the config file's slo block, else off)")
		faults     = fs.String("faults", "", "arm fault-injection points, e.g. 'wal.fsync=delay:5ms;engine.search=delay:2ms' (also via P2HD_FAULTS)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *mode {
	case "serve":
	case "router":
		return runRouter(ctx, *configPath, *listen, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "p2hd: unknown -mode %q (want \"serve\" or \"router\")\n", *mode)
		return 2
	}

	cfg := httpapi.Config{}
	if *configPath != "" {
		var err error
		if cfg, err = httpapi.LoadConfig(*configPath); err != nil {
			fmt.Fprintf(stderr, "p2hd: %v\n", err)
			return 1
		}
	}
	opts := cfg.Server.Options()
	if *workers != 0 {
		opts.Workers = *workers
	}
	if *cacheSize != 0 {
		opts.CacheEntries = *cacheSize
	}
	if *maxQueue != 0 {
		opts.MaxQueue = *maxQueue
	}
	if *maxTimeout > 0 {
		cfg.MaxTimeout = httpapi.Duration(*maxTimeout)
	}
	if *sloTarget > 0 {
		cfg.SLO = &httpapi.SLOConfig{TargetP99: httpapi.Duration(*sloTarget)}
	}
	// Chaos hooks: the -faults flag and the P2HD_FAULTS environment variable
	// arm fault-injection points before any index loads, so even startup
	// replay runs under the injected faults.
	for _, spec := range []string{os.Getenv("P2HD_FAULTS"), *faults} {
		if err := faultinject.Configure(spec); err != nil {
			fmt.Fprintf(stderr, "p2hd: %v\n", err)
			return 1
		}
	}
	if faultinject.Armed() {
		// Loud on purpose: a daemon accidentally started with faults armed
		// should be impossible to mistake for a healthy one.
		fmt.Fprintf(stderr, "p2hd: fault injection armed — serving degraded on purpose\n")
	}
	drainTimeout := *drain
	if drainTimeout <= 0 {
		drainTimeout = cfg.DrainTimeoutOrDefault()
	}
	addr := *listen
	if addr == "" {
		addr = cfg.Listen
	}
	if addr == "" {
		addr = "127.0.0.1:8080"
	}

	mgr := httpapi.NewManager(opts, drainTimeout)
	defer mgr.Close(context.Background())

	// Startup indexes: the config file's (in name order, so failures are
	// deterministic), then the single index the flags declare.
	names := make([]string, 0, len(cfg.Indexes))
	for n := range cfg.Indexes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := loadStartupIndex(mgr, n, cfg.Indexes[n], stdout); err != nil {
			fmt.Fprintf(stderr, "p2hd: index %q: %v\n", n, err)
			return 1
		}
	}
	if ic, declared, err := flagIndexConfig(*loadPath, *indexKind, *specJSON, *dataPath, *wal, *walSync); err != nil {
		fmt.Fprintf(stderr, "p2hd: %v\n", err)
		return 1
	} else if declared {
		if err := loadStartupIndex(mgr, *name, ic, stdout); err != nil {
			fmt.Fprintf(stderr, "p2hd: index %q: %v\n", *name, err)
			return 1
		}
	}
	if mgr.Len() == 0 {
		fmt.Fprintln(stdout, "p2hd: no indexes loaded; POST /v1/indexes/{name} to hot-load one")
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "p2hd: %v\n", err)
		return 1
	}
	if cfg.SLO != nil {
		if err := mgr.StartSLO(*cfg.SLO); err != nil {
			fmt.Fprintf(stderr, "p2hd: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "p2hd: SLO controller on, target p99 %v\n", time.Duration(cfg.SLO.TargetP99))
	}
	srv := &http.Server{Handler: httpapi.NewHandlerWithOptions(mgr, cfg.HandlerOptions())}
	fmt.Fprintf(stdout, "p2hd: listening on http://%s\n", ln.Addr())
	notifyReady(ln.Addr().String())

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		fmt.Fprintf(stderr, "p2hd: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, let in-flight HTTP requests finish,
	// then drain every serving engine — each step gets its own full drain
	// budget, so a slow-but-healthy HTTP drain cannot starve the engine
	// drain of time, and a stuck query still cannot hold the process
	// hostage for more than two timeouts.
	// Flip /healthz to 503 first: load balancers stop routing while the HTTP
	// drain still serves whatever is in flight (and any stragglers).
	mgr.BeginDrain()
	fmt.Fprintln(stdout, "p2hd: shutting down")
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), drainTimeout)
	defer cancelHTTP()
	if err := srv.Shutdown(httpCtx); err != nil {
		fmt.Fprintf(stderr, "p2hd: shutdown: %v\n", err)
	}
	mgrCtx, cancelMgr := context.WithTimeout(context.Background(), drainTimeout)
	defer cancelMgr()
	if err := mgr.Close(mgrCtx); err != nil {
		fmt.Fprintf(stderr, "p2hd: drain: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "p2hd: drained")
	return 0
}

// flagIndexConfig assembles the single-index startup declaration from the
// -load / -index / -spec / -data / -wal flags; declared reports whether any
// were given.
func flagIndexConfig(loadPath, indexKind, specJSON, dataPath string, wal bool, walSync string) (httpapi.IndexConfig, bool, error) {
	if loadPath == "" && indexKind == "" && specJSON == "" && dataPath == "" {
		if wal || walSync != "" {
			return httpapi.IndexConfig{}, false, errors.New("-wal needs -load (durability needs a container to recover into)")
		}
		return httpapi.IndexConfig{}, false, nil
	}
	ic := httpapi.IndexConfig{Path: loadPath, Data: dataPath, WAL: wal, WALSync: walSync}
	if indexKind != "" || specJSON != "" {
		var spec p2h.Spec
		if specJSON != "" {
			if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
				return ic, false, fmt.Errorf("bad -spec JSON: %w", err)
			}
		}
		if indexKind != "" {
			spec.Kind = indexKind
		}
		if spec.Kind == "" {
			spec.Kind = p2h.KindBCTree
		}
		ic.Spec = &spec
	}
	if ic.Path == "" && ic.Spec == nil {
		return ic, false, errors.New("-data needs -index or -spec (or use -load for a saved container)")
	}
	return ic, true, nil
}

// loadStartupIndex loads one declared index and reports it.
func loadStartupIndex(mgr *httpapi.Manager, name string, ic httpapi.IndexConfig, stdout io.Writer) error {
	start := time.Now()
	info, _, err := mgr.Load(name, ic, false)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "p2hd: index %q: %s, %d points, d=%d, loaded in %v\n",
		name, info.Kind, info.N, info.Dim, time.Since(start).Round(time.Millisecond))
	return nil
}
