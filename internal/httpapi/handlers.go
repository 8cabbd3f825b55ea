package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	p2h "p2h"
	"p2h/internal/attr"
	"p2h/internal/core"
	"p2h/internal/faultinject"
)

// maxBodyBytes bounds any request body, a runaway upload included. A
// GloVe-sized query (101 floats) is ≈543 B as base64, so a batch of 100k
// (≈54 MB) fits; as decimal text it is ≈1.23 KB, so about 54k fit.
const maxBodyBytes = 64 << 20

// DefaultMaxTimeout caps client timeout_ms values and backstops requests
// that name none, so every search the daemon dispatches carries a deadline —
// a stuck traversal can hold a connection, never a worker slot forever.
const DefaultMaxTimeout = 30 * time.Second

// HandlerOptions tunes the HTTP layer's request-deadline policy, the one
// rule a daemon and a cluster router both apply.
type HandlerOptions struct {
	// MaxTimeout caps any client timeout_ms and is the deadline of requests
	// without one (non-positive: DefaultMaxTimeout).
	MaxTimeout time.Duration
}

// Normalized resolves the documented default; Timeout expects options
// normalized once, where a handler is built.
func (o HandlerOptions) Normalized() HandlerOptions {
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = DefaultMaxTimeout
	}
	return o
}

// Timeout is how long a request naming timeoutMS may run: the client's
// value capped by MaxTimeout, or MaxTimeout when it names none — so every
// search dispatched carries a deadline.
func (o HandlerOptions) Timeout(timeoutMS int) time.Duration {
	d := time.Duration(timeoutMS) * time.Millisecond
	if d <= 0 {
		return o.MaxTimeout
	}
	return min(d, o.MaxTimeout)
}

// API serves the p2hd HTTP surface over a Manager.
type API struct {
	m       *Manager
	metrics *Metrics
	started time.Time
	opts    HandlerOptions // normalized
}

// NewHandler builds the daemon's HTTP handler over m:
//
//	GET    /healthz                           liveness + index count
//	GET    /metrics                           Prometheus text format
//	GET    /v1/indexes                        list indexes
//	GET    /v1/indexes/{name}                 one index's info + stats
//	POST   /v1/indexes/{name}                 hot-load (or, with replace, hot-swap) an index
//	DELETE /v1/indexes/{name}                 unload an index
//	POST   /v1/indexes/{name}/search          one query
//	POST   /v1/indexes/{name}/search_batch    many queries, shared options
//	POST   /v1/indexes/{name}/insert          add a point (mutable indexes)
//	DELETE /v1/indexes/{name}/points/{handle} delete a point (mutable indexes)
//	POST   /v1/indexes/{name}/snapshot        persist atomically to a server-side path
//
// Every response is JSON except /metrics; errors use the ErrorResponse
// envelope with a stable machine-readable code.
func NewHandler(m *Manager) http.Handler { return NewHandlerWithOptions(m, HandlerOptions{}) }

// NewHandlerWithOptions is NewHandler with an explicit request-deadline
// policy (see HandlerOptions).
func NewHandlerWithOptions(m *Manager, opts HandlerOptions) http.Handler {
	a := &API{m: m, metrics: newDaemonMetrics(), started: time.Now(), opts: opts.Normalized()}
	mux := http.NewServeMux()
	route := func(pattern, endpoint string, h http.HandlerFunc) {
		a.metrics.Route(mux, pattern, endpoint, h)
	}
	route("GET /healthz", "healthz", a.handleHealthz)
	route("GET /metrics", "metrics", a.handleMetrics)
	route("GET /v1/indexes", "list", a.handleList)
	route("GET /v1/indexes/{name}", "info", a.handleInfo)
	route("POST /v1/indexes/{name}", "load", a.handleLoad)
	route("DELETE /v1/indexes/{name}", "unload", a.handleUnload)
	route("POST /v1/indexes/{name}/search", "search", a.handleSearch)
	route("POST /v1/indexes/{name}/search_batch", "search_batch", a.handleSearchBatch)
	route("POST /v1/indexes/{name}/insert", "insert", a.handleInsert)
	route("DELETE /v1/indexes/{name}/points/{handle}", "delete_point", a.handleDeletePoint)
	route("POST /v1/indexes/{name}/snapshot", "snapshot", a.handleSnapshot)
	route("GET /v1/indexes/{name}/container", "container", a.handleContainer)
	route("POST /v1/indexes/{name}/restore", "restore", a.handleRestore)
	return mux
}

// WriteJSON writes v as the JSON body of a response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// searchContext derives one request's deadline by HandlerOptions.Timeout,
// so every search dispatched into an engine is deadline-bounded. The context
// also inherits the connection's (a client that hangs up cancels its
// in-flight work). The clock.skew failpoint, when armed, shifts the computed
// deadline — the chaos hook for "the daemon's clock is wrong" without
// touching the real clock; the router applies the same rule without it.
func (a *API) searchContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := a.opts.Timeout(timeoutMS)
	if faultinject.Armed() {
		d += faultinject.Delay("clock.skew")
	}
	return context.WithDeadline(r.Context(), time.Now().Add(d))
}

// ErrorStatus maps an error onto an HTTP status and a stable wire code.
func ErrorStatus(err error) (int, string) {
	switch {
	case errors.Is(err, p2h.ErrOverloaded):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, p2h.ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, "canceled"
	case errors.Is(err, ErrIndexNotFound):
		return http.StatusNotFound, "index_not_found"
	case errors.Is(err, ErrIndexExists):
		return http.StatusConflict, "index_exists"
	case errors.Is(err, p2h.ErrImmutable):
		return http.StatusMethodNotAllowed, "immutable"
	case errors.Is(err, p2h.ErrUnknownKind):
		return http.StatusBadRequest, "unknown_kind"
	case errors.Is(err, core.ErrDimMismatch):
		return http.StatusBadRequest, "dim_mismatch"
	case errors.Is(err, core.ErrZeroNormal):
		return http.StatusBadRequest, "zero_normal"
	case errors.Is(err, p2h.ErrFormat):
		return http.StatusBadRequest, "bad_container"
	case errors.Is(err, ErrBodyTooLarge):
		return http.StatusRequestEntityTooLarge, "body_too_large"
	case errors.Is(err, ErrBadName), errors.Is(err, ErrBadConfig), errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest, "bad_request"
	case errors.Is(err, fs.ErrNotExist):
		return http.StatusBadRequest, "file_not_found"
	case errors.Is(err, ErrManagerClosed):
		return http.StatusServiceUnavailable, "shutting_down"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

func (a *API) fail(w http.ResponseWriter, err error) {
	var oe *p2h.OverloadError
	if errors.As(err, &oe) {
		// Whole seconds, rounded up: Retry-After's wire granularity. A
		// sub-second suggestion still reads "1" — retrying sooner than the
		// engine's own estimate only feeds the backlog being shed.
		secs := int(math.Ceil(oe.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	status, code := ErrorStatus(err)
	WriteJSON(w, status, ErrorResponse{Error: err.Error(), Code: code})
}

// DecodeBody strictly decodes one JSON document into v. An over-limit body
// surfaces as its own error so clients can tell "shrink the batch" (413)
// from "malformed JSON" (400).
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return fmt.Errorf("%w: body exceeds %d bytes", ErrBodyTooLarge, tooBig.Limit)
		}
		return fmt.Errorf("%w: decoding body: %v", ErrBadRequest, err)
	}
	return nil
}

func (a *API) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:        "ok",
		UptimeSeconds: int64(time.Since(a.started).Seconds()),
	}
	status := http.StatusOK
	switch {
	case a.m.Draining():
		// Load balancers must stop routing before the listener closes;
		// requests that still arrive are served until the drain completes.
		resp.Status = "draining"
		resp.Reason = "shutting down: drain begun, in-flight requests completing"
		status = http.StatusServiceUnavailable
	case a.m.Swapping():
		resp.Status = "swapping"
		resp.Reason = "index hot-swap in progress: old engine draining"
		status = http.StatusServiceUnavailable
	}
	for _, info := range a.m.List() {
		resp.Indexes++
		if info.Stats.BudgetCeiling > 0 {
			resp.Degraded = true
			resp.DegradedIndexes++
		}
		if info.WAL != nil {
			resp.WALIndexes++
			resp.WALReplayedRecords += info.WAL.Replayed
			resp.WALPendingRecords += info.WAL.Records
		}
	}
	WriteJSON(w, status, resp)
}

func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	renderDaemon(&b, a.metrics, a.m.List(), a.m.Draining(), a.m.Swapping())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

func (a *API) handleList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, ListResponse{Indexes: a.m.List()})
}

func (a *API) handleInfo(w http.ResponseWriter, r *http.Request) {
	info, err := a.m.Get(r.PathValue("name"))
	if err != nil {
		a.fail(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

func (a *API) handleLoad(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req LoadRequest
	if err := DecodeBody(w, r, &req); err != nil {
		a.fail(w, err)
		return
	}
	info, replaced, err := a.m.Load(name, req.IndexConfig, req.Replace)
	if err != nil {
		a.fail(w, err)
		return
	}
	status := http.StatusCreated
	if replaced {
		status = http.StatusOK
	}
	WriteJSON(w, status, info)
}

func (a *API) handleUnload(w http.ResponseWriter, r *http.Request) {
	drained, err := a.m.Unload(r.PathValue("name"))
	if err != nil {
		a.fail(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, UnloadResponse{Unloaded: true, Drained: drained})
}

func (a *API) handleSearch(w http.ResponseWriter, r *http.Request) {
	e, release, err := a.m.acquire(r.PathValue("name"))
	if err != nil {
		a.fail(w, err)
		return
	}
	defer release()
	var req SearchRequest
	if err := DecodeBody(w, r, &req); err != nil {
		a.fail(w, err)
		return
	}
	q, err := req.query(e.dim)
	if err != nil {
		a.fail(w, err)
		return
	}
	opts, err := req.toOptions()
	if err != nil {
		a.fail(w, err)
		return
	}
	ctx, cancel := a.searchContext(r, req.TimeoutMS)
	defer cancel()
	res, stats, err := e.srv.SearchCtx(ctx, q, opts)
	if err != nil {
		// An expired deadline answers 504 even when partial results exist:
		// a truncated top-k is not the top-k the client asked for, and a
		// clean error is what its hedging logic keys on.
		a.fail(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, SearchResponse{Results: orEmpty(res), Stats: stats})
}

// orEmpty returns res, or an empty list in place of nil — what a search that
// matched nothing may return — so an answer encodes as [] and never null.
func orEmpty(res []core.Result) []core.Result {
	if res == nil {
		return []core.Result{}
	}
	return res
}

func (a *API) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	e, release, err := a.m.acquire(r.PathValue("name"))
	if err != nil {
		a.fail(w, err)
		return
	}
	defer release()
	var req BatchSearchRequest
	if err := DecodeBody(w, r, &req); err != nil {
		a.fail(w, err)
		return
	}
	if len(req.Queries) == 0 {
		a.fail(w, fmt.Errorf("%w: empty \"queries\"", ErrBadRequest))
		return
	}
	opts, err := req.toOptions()
	if err != nil {
		a.fail(w, err)
		return
	}
	// Validate everything before submitting anything, so a bad row cannot
	// leave the batch half-executed.
	queries := make([][]float32, len(req.Queries))
	for i, q := range req.Queries {
		if _, err := core.CheckQuery(q, e.dim); err != nil {
			a.fail(w, fmt.Errorf("query %d: %w", i, err))
			return
		}
		queries[i] = q
	}

	// The whole batch shares one deadline and one admission decision: a shed
	// batch answers 429 + Retry-After exactly like /search, and any terminal
	// error (deadline expired, engine draining) fails it as a unit — the
	// response is one JSON document, all-or-nothing.
	ctx, cancel := a.searchContext(r, req.TimeoutMS)
	defer cancel()
	results, stats, err := e.srv.SearchBatchCtx(ctx, queries, opts)
	if err != nil {
		a.fail(w, err)
		return
	}

	resp := BatchSearchResponse{Results: results}
	for i, res := range results {
		results[i] = orEmpty(res)
		resp.Stats.Add(stats[i])
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (a *API) handleInsert(w http.ResponseWriter, r *http.Request) {
	e, release, err := a.m.acquire(r.PathValue("name"))
	if err != nil {
		a.fail(w, err)
		return
	}
	defer release()
	var req InsertRequest
	if err := DecodeBody(w, r, &req); err != nil {
		a.fail(w, err)
		return
	}
	if len(req.Point) != e.dim {
		a.fail(w, fmt.Errorf("%w: point has dimension %d, index needs %d",
			core.ErrDimMismatch, len(req.Point), e.dim))
		return
	}
	var at attr.Point
	if req.Attrs != nil {
		at = *req.Attrs
	}
	h, err := e.srv.InsertWithAttrs(req.Point, at)
	if errors.Is(err, attr.ErrPayload) {
		err = fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if err != nil {
		a.fail(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, InsertResponse{Handle: h})
}

func (a *API) handleDeletePoint(w http.ResponseWriter, r *http.Request) {
	e, release, err := a.m.acquire(r.PathValue("name"))
	if err != nil {
		a.fail(w, err)
		return
	}
	defer release()
	h64, err := strconv.ParseInt(r.PathValue("handle"), 10, 32)
	if err != nil {
		a.fail(w, fmt.Errorf("%w: bad handle %q", ErrBadRequest, r.PathValue("handle")))
		return
	}
	ok, err := e.srv.Delete(int32(h64))
	if err != nil {
		a.fail(w, err)
		return
	}
	if !ok {
		WriteJSON(w, http.StatusNotFound, ErrorResponse{
			Error: fmt.Sprintf("handle %d is not live", h64), Code: "handle_not_found",
		})
		return
	}
	WriteJSON(w, http.StatusOK, DeleteResponse{Deleted: true, Handle: int32(h64)})
}

// handleContainer streams a fresh atomic snapshot of the index as raw
// container bytes — the wire half of snapshot shipping: a cluster router
// GETs this on a shard's primary and POSTs the bytes to /restore on the
// replicas. Response headers carry the point count and mutation epoch of
// the streamed cut (X-P2H-Points, X-P2H-Epoch) so the shipper can record
// the version it replicated without re-parsing the container.
//
// An index with a write-ahead log snapshots to its own canonical container
// path (the snapshot truncates the log, so writing anywhere else would
// orphan the truncated records); an index without one is copied to a
// temporary file in the manager's spool directory, removed after the
// stream. The index never adopts that copy (p2h.SaveFile): it would serve
// from a file about to be deleted.
func (a *API) handleContainer(w http.ResponseWriter, r *http.Request) {
	e, release, err := a.m.acquire(r.PathValue("name"))
	if err != nil {
		a.fail(w, err)
		return
	}
	defer release()
	if persistable, buildOnly, err := p2h.KindIsPersistable(e.kind); err == nil && !persistable {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("index kind %q is build-only: %s", e.kind, buildOnly),
			Code:  "not_persistable",
		})
		return
	}
	// Snapshot first, then read the stats: the exclusive cut inside Snapshot
	// means the streamed bytes are at least as new as the n/epoch reported.
	var f *os.File
	if e.wal != nil && e.cfg.Path != "" {
		if _, err = e.srv.Snapshot(e.cfg.Path); err == nil {
			f, err = os.Open(e.cfg.Path)
		}
	} else if f, err = a.spoolCopy(e); err == nil {
		defer os.Remove(f.Name())
	}
	if err != nil {
		a.fail(w, err)
		return
	}
	defer f.Close()
	// The size is the opened file's own: a newer snapshot renamed over the
	// path since leaves this one, and its length, as they were.
	fi, err := f.Stat()
	if err != nil {
		a.fail(w, err)
		return
	}
	n, _ := e.srv.Describe()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
	w.Header().Set("X-P2H-Kind", e.kind)
	w.Header().Set("X-P2H-Points", strconv.Itoa(n))
	w.Header().Set("X-P2H-Epoch", strconv.FormatUint(e.srv.Stats().Epoch, 10))
	_, _ = io.Copy(w, f)
}

// spoolCopy writes the index to a new spool file and returns it open at its
// start; the caller removes it. A mutable index is snapshotted under the
// server's exclusive cut, which adopts nothing without a log; an immutable
// one needs no cut and is saved directly, which adopts nothing either.
func (a *API) spoolCopy(e *managed) (*os.File, error) {
	f, err := os.CreateTemp(a.m.spoolDir(), ".p2hd-container-*.p2h")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	if _, mutable := e.srv.Index().(*p2h.Dynamic); mutable {
		f.Close()
		if _, err = e.srv.Snapshot(path); err == nil {
			f, err = os.Open(path)
		}
	} else if err = p2h.Save(f, e.srv.Index()); err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return f, nil
}

// maxContainerBytes bounds a restore upload; far above any container this
// daemon could serve from memory, far below a runaway stream.
const maxContainerBytes = 8 << 30

// handleRestore accepts raw container bytes, spools them to the manager's
// spool directory and hot-swaps them in under the request's index name (a
// fresh name loads rather than swaps). This is the receiving half of
// snapshot shipping: the sender is any p2h.Save container — typically the
// /container stream of the shard's primary. A container that fails to load
// leaves the currently-served index untouched and the spool file removed.
// A loaded one owns its spool file: retiring the index — a later restore
// over it, an unload or the manager's Close — removes the file once the
// engine has drained.
func (a *API) handleRestore(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := checkName(name); err != nil {
		a.fail(w, err)
		return
	}
	spool := a.m.spoolDir()
	f, err := os.CreateTemp(spool, "p2hd-restore-"+name+"-*.p2h")
	if err != nil {
		a.fail(w, err)
		return
	}
	path := f.Name()
	_, err = io.Copy(f, http.MaxBytesReader(w, r.Body, maxContainerBytes))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			a.fail(w, fmt.Errorf("%w: container exceeds %d bytes", ErrBodyTooLarge, tooBig.Limit))
			return
		}
		a.fail(w, err)
		return
	}
	info, replaced, err := a.m.load(name, IndexConfig{Path: path}, true, true)
	if err != nil {
		os.Remove(path)
		a.fail(w, err)
		return
	}
	status := http.StatusCreated
	if replaced {
		status = http.StatusOK
	}
	WriteJSON(w, status, info)
}

func (a *API) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	e, release, err := a.m.acquire(r.PathValue("name"))
	if err != nil {
		a.fail(w, err)
		return
	}
	defer release()
	var req SnapshotRequest
	if err := DecodeBody(w, r, &req); err != nil {
		a.fail(w, err)
		return
	}
	if req.Path == "" {
		a.fail(w, fmt.Errorf("%w: missing \"path\"", ErrBadRequest))
		return
	}
	// A build-only kind cannot snapshot by design; report it as the
	// client-side condition it is, not a daemon fault.
	if persistable, buildOnly, err := p2h.KindIsPersistable(e.kind); err == nil && !persistable {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("index kind %q is build-only: %s", e.kind, buildOnly),
			Code:  "not_persistable",
		})
		return
	}
	n, err := e.srv.Snapshot(req.Path)
	if err != nil {
		a.fail(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, SnapshotResponse{Path: req.Path, Bytes: n})
}
