// Package httpapi is the network-facing service layer of the library: a
// multi-index manager plus HTTP handlers that together turn p2h indexes into
// the p2hd daemon. The manager holds any number of named indexes — each one
// a p2h.Server standing over an index opened from a .p2h container or built
// from a declarative Spec — and supports hot load, hot swap and unload
// without restarting: a replacement index is built first, swapped in
// atomically, and the old engine is drained away once its in-flight requests
// finish. The handlers expose search, batched search, mutation, snapshot and
// admin endpoints plus Prometheus-format metrics, all stdlib-only.
package httpapi

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	p2h "p2h"
)

// Typed manager errors; the HTTP layer maps them onto status codes.
var (
	// ErrIndexNotFound reports a name with no loaded index.
	ErrIndexNotFound = errors.New("httpapi: no such index")
	// ErrIndexExists reports a Load of an already-used name without Replace.
	ErrIndexExists = errors.New("httpapi: index already loaded")
	// ErrBadName reports an index name outside [A-Za-z0-9._-]{1,64}.
	ErrBadName = errors.New("httpapi: invalid index name")
	// ErrBadConfig reports an IndexConfig that declares no index (or an
	// ambiguous one).
	ErrBadConfig = errors.New("httpapi: invalid index config")
	// ErrManagerClosed reports use of a manager after Close.
	ErrManagerClosed = errors.New("httpapi: manager closed")
)

// ErrBadRequest tags request-shape errors (malformed JSON, missing fields);
// the HTTP layer maps it to 400. ErrBodyTooLarge tags an over-limit body,
// mapped to 413. The router (internal/cluster) tags its own with the same two.
var (
	ErrBadRequest   = errors.New("httpapi: bad request")
	ErrBodyTooLarge = errors.New("httpapi: request body too large")
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

func checkName(name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("%w: %q (want 1-64 of [A-Za-z0-9._-])", ErrBadName, name)
	}
	return nil
}

// managed is one served index: the engine and its declaration. A handler
// that looked the entry up just before it was retired still holds a valid
// engine: the engine refuses what arrives after its drain with ErrDraining
// (503 draining) and waits for what arrived before.
type managed struct {
	name    string
	srv     *p2h.Server
	cfg     IndexConfig
	kind    string
	dim     int
	mutable bool
	// wal is the index's write-ahead log, nil unless cfg.WAL attached one.
	// Owned by the entry: retirement closes it once the engine has drained,
	// when no mutation or snapshot can reach it any more. replayed is the
	// pending record count the load-time replay consumed.
	wal      *p2h.WAL
	replayed int
	// spool is the restore upload the index was opened from (see
	// handleRestore), empty for any other index. Owned by the entry like
	// the log: retirement removes it once the engine can no longer read it.
	spool string
}

// info snapshots the entry for the wire. N and IndexBytes are read live
// through Server.Describe — under the mutation lock — so the probe is safe
// while Insert/Delete traffic flows.
func (e *managed) info() IndexInfoResponse {
	n, bytes := e.srv.Describe()
	info := IndexInfoResponse{
		Name:       e.name,
		Kind:       e.kind,
		Dim:        e.dim,
		N:          n,
		IndexBytes: bytes,
		Mutable:    e.mutable,
		Stats:      e.srv.Stats(),
		Source:     e.cfg,
	}
	if e.wal != nil {
		info.WAL = &WALInfoJSON{
			Path:     e.wal.Path(),
			Sync:     e.wal.SyncMode().String(),
			Records:  e.wal.Records(),
			Replayed: e.replayed,
			Syncs:    e.wal.Syncs(),
		}
	}
	return info
}

// Manager holds the named indexes a daemon serves. All methods are safe for
// concurrent use.
type Manager struct {
	opts         p2h.ServerOptions
	drainTimeout time.Duration
	// spool is where container uploads (/restore) and transient snapshot
	// streams (/container) are written; empty selects os.TempDir(). Set
	// once via SetSpoolDir before serving.
	spool string

	// draining flips once BeginDrain (or Close) runs: /healthz answers 503
	// so load balancers stop routing while in-flight work still completes.
	// swapping counts hot-swap retirements in progress, for the same signal.
	draining atomic.Bool
	swapping atomic.Int64

	mu      sync.RWMutex
	indexes map[string]*managed
	closed  bool
	// SLO controller lifecycle (see controller.go); nil when not running.
	sloStop chan struct{}
	sloDone chan struct{}
}

// NewManager creates an empty manager. opts tunes every index's serving
// engine; drainTimeout bounds unload/swap/shutdown waits (non-positive:
// DefaultDrainTimeout).
func NewManager(opts p2h.ServerOptions, drainTimeout time.Duration) *Manager {
	if drainTimeout <= 0 {
		drainTimeout = DefaultDrainTimeout
	}
	return &Manager{
		opts:         opts,
		drainTimeout: drainTimeout,
		indexes:      make(map[string]*managed),
	}
}

// SetSpoolDir sets the directory restore uploads and transient container
// streams use (empty: os.TempDir()). Call it before the manager serves
// requests; it is not synchronized against in-flight handlers.
func (m *Manager) SetSpoolDir(dir string) { m.spool = dir }

// spoolDir resolves the spool directory, defaulting to the system temp dir.
func (m *Manager) spoolDir() string {
	if m.spool == "" {
		return os.TempDir()
	}
	return m.spool
}

// buildIndex materializes an IndexConfig into an index, plus the attached
// write-ahead log when the declaration asks for one. Untyped build
// failures (a spec its kind rejects, a spec with no data) are tagged
// ErrBadConfig — the declaration is at fault, not the daemon — while typed
// errors (unknown kind, dim mismatch, bad container, missing file) pass
// through for their own HTTP mapping.
//
// p2h.Open itself replays a pending sidecar log, so by the time AttachWAL
// runs the records are already in the index and it replays nothing — the
// replayed count reported on the wire is therefore probed from the log
// just before Open consumes it.
func buildIndex(cfg IndexConfig) (p2h.Index, *p2h.WAL, int, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, 0, err
	}
	pending := 0
	if cfg.WAL {
		if _, err := p2h.ParseWALSyncMode(cfg.WALSync); err != nil {
			return nil, nil, 0, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		n, err := p2h.CountWALRecords(p2h.WALPath(cfg.Path))
		if err != nil {
			return nil, nil, 0, err
		}
		pending = n
	}
	var ix p2h.Index
	var err error
	if cfg.Path != "" {
		ix, err = p2h.Open(cfg.Path)
	} else {
		var data *p2h.Matrix
		if cfg.Data != "" {
			if data, err = p2h.LoadFvecs(cfg.Data); err != nil {
				return nil, nil, 0, err
			}
		}
		ix, err = p2h.New(data, *cfg.Spec)
	}
	if err != nil {
		if !typedBuildError(err) {
			err = fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		return nil, nil, 0, err
	}
	if !cfg.WAL {
		return ix, nil, 0, nil
	}
	mode, _ := p2h.ParseWALSyncMode(cfg.WALSync)
	wal, err := p2h.AttachWAL(ix, p2h.WALPath(cfg.Path), mode)
	if err != nil {
		if !typedBuildError(err) {
			err = fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		return nil, nil, 0, err
	}
	return ix, wal, pending, nil
}

func typedBuildError(err error) bool {
	for _, typed := range []error{
		p2h.ErrUnknownKind, p2h.ErrDimMismatch, p2h.ErrZeroNormal, p2h.ErrFormat, fs.ErrNotExist,
	} {
		if errors.Is(err, typed) {
			return true
		}
	}
	return false
}

// Load stands up the index cfg declares under name. With replace set an
// existing index of that name is hot-swapped: the new one is built first
// (the old keeps serving), swapped in atomically, and the old engine retired
// in the background once its in-flight requests finish. Without replace an
// existing name is an error. It returns the new index's description — taken
// from the entry it just installed, so a concurrent unload or replace of
// the same name cannot make a successful load report someone else's index —
// and whether an index was replaced.
func (m *Manager) Load(name string, cfg IndexConfig, replace bool) (info IndexInfoResponse, replaced bool, err error) {
	return m.load(name, cfg, replace, false)
}

// load is Load; with spooled set the entry owns the container at cfg.Path,
// a restore upload, and removes it when it retires. A failed load leaves the
// file to the caller.
func (m *Manager) load(name string, cfg IndexConfig, replace, spooled bool) (info IndexInfoResponse, replaced bool, err error) {
	if err := checkName(name); err != nil {
		return IndexInfoResponse{}, false, err
	}
	// Fail fast on a name collision before paying for a build. This check
	// is advisory (the authoritative one runs under the write lock below),
	// but it turns a doomed multi-second build into a microsecond 409.
	if !replace {
		m.mu.RLock()
		_, exists := m.indexes[name]
		m.mu.RUnlock()
		if exists {
			return IndexInfoResponse{}, false, fmt.Errorf("%w: %q", ErrIndexExists, name)
		}
	}
	// Build outside the lock: construction can take seconds and the old
	// index (if any) should serve through all of it.
	ix, wal, replayed, err := buildIndex(cfg)
	if err != nil {
		return IndexInfoResponse{}, false, err
	}
	opts := m.opts
	opts.WAL = wal
	_, mutable := ix.(*p2h.Dynamic)
	e := &managed{
		name:     name,
		srv:      p2h.NewServer(ix, opts),
		cfg:      cfg,
		kind:     p2h.KindOf(ix),
		dim:      ix.Dim(),
		mutable:  mutable,
		wal:      wal,
		replayed: replayed,
	}
	if spooled {
		e.spool = cfg.Path
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		e.srv.Close()
		return IndexInfoResponse{}, false, ErrManagerClosed
	}
	old := m.indexes[name]
	if old != nil && !replace {
		m.mu.Unlock()
		e.srv.Close()
		return IndexInfoResponse{}, false, fmt.Errorf("%w: %q", ErrIndexExists, name)
	}
	m.indexes[name] = e
	m.mu.Unlock()

	if old != nil {
		m.swapping.Add(1)
		go func() {
			defer m.swapping.Add(-1)
			m.retire(old)
		}()
	}
	return e.info(), old != nil, nil
}

// BeginDrain marks the daemon as draining: /healthz flips to 503 so load
// balancers stop routing new traffic, while everything already in flight —
// and any stragglers that still arrive — keeps being served. Call it before
// http.Server.Shutdown to turn connection resets into a clean handoff.
func (m *Manager) BeginDrain() { m.draining.Store(true) }

// Draining reports whether BeginDrain (or Close) has run.
func (m *Manager) Draining() bool { return m.draining.Load() }

// Swapping reports whether any hot-swap is still retiring its old engine.
func (m *Manager) Swapping() bool { return m.swapping.Load() > 0 }

// Unload removes the named index and drains its engine, waiting up to the
// manager's drain timeout for in-flight requests. The index is gone from the
// table either way; drained reports whether the engine stopped cleanly
// within the bound.
func (m *Manager) Unload(name string) (drained bool, err error) {
	m.mu.Lock()
	e := m.indexes[name]
	if e == nil {
		m.mu.Unlock()
		return false, fmt.Errorf("%w: %q", ErrIndexNotFound, name)
	}
	delete(m.indexes, name)
	m.mu.Unlock()
	return m.retire(e), nil
}

// retire drains an entry already removed from the table, bounded by the drain
// timeout, and then releases what it owns: once the engine has drained, no
// mutation or snapshot can reach the log and no search the spool file. A
// false return means the engine was abandoned still running (a stuck search
// or journal wait); one goroutine then waits it out and releases them after
// it. Either way the engine holds no table slot, and a call that still
// reaches it answers ErrDraining.
func (m *Manager) retire(e *managed) (drained bool) {
	ctx, cancel := context.WithTimeout(context.Background(), m.drainTimeout)
	defer cancel()
	if e.srv.Drain(ctx) != nil {
		go func() {
			e.srv.Close()
			e.release()
		}()
		return false
	}
	e.release()
	return true
}

// release closes the entry's log and removes its spool file.
func (e *managed) release() {
	if e.wal != nil {
		_ = e.wal.Close()
	}
	if e.spool != "" {
		_ = os.Remove(e.spool)
	}
}

// acquire looks the named entry up and takes a place in its engine's intake
// gate (Server.Hold) while the table still lists it, so no replace or unload
// can have begun to retire the engine: one that does waits for the caller,
// up to the drain timeout, and serves its calls meanwhile. The caller runs
// release when it is done with the entry.
func (m *Manager) acquire(name string) (e *managed, release func(), err error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return nil, nil, ErrManagerClosed
	}
	e = m.indexes[name]
	if e == nil {
		return nil, nil, fmt.Errorf("%w: %q", ErrIndexNotFound, name)
	}
	if release, err = e.srv.Hold(); err != nil {
		return nil, nil, err
	}
	return e, release, nil
}

// Get returns a live snapshot of the named index's description.
func (m *Manager) Get(name string) (IndexInfoResponse, error) {
	e, release, err := m.acquire(name)
	if err != nil {
		return IndexInfoResponse{}, err
	}
	defer release()
	return e.info(), nil
}

// List describes every loaded index, sorted by name.
func (m *Manager) List() []IndexInfoResponse {
	entries := m.entries()
	infos := make([]IndexInfoResponse, 0, len(entries))
	for _, e := range entries {
		infos = append(infos, e.info())
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// entries snapshots the table's entries, in no order.
func (m *Manager) entries() []*managed {
	m.mu.RLock()
	defer m.mu.RUnlock()
	entries := make([]*managed, 0, len(m.indexes))
	for _, e := range m.indexes {
		entries = append(entries, e)
	}
	return entries
}

// Len reports the number of loaded indexes.
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.indexes)
}

// Close retires every index and rejects further use. It waits — bounded by
// ctx on top of the per-index drain timeout — for the retirements to finish
// and reports the first context error, if any. It may run while handlers are
// still in flight: each engine waits for the calls inside it and refuses
// later ones with ErrDraining.
func (m *Manager) Close(ctx context.Context) error {
	m.draining.Store(true)
	m.stopSLO()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	entries := make([]*managed, 0, len(m.indexes))
	for _, e := range m.indexes {
		entries = append(entries, e)
	}
	m.indexes = make(map[string]*managed)
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for _, e := range entries {
			wg.Add(1)
			go func(e *managed) {
				defer wg.Done()
				m.retire(e)
			}(e)
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
