package httpapi

import (
	"fmt"

	p2h "p2h"
	"p2h/internal/core"
)

// The JSON wire types of the p2hd HTTP API. Every request body is a single
// JSON document; every response is either the documented success shape or an
// ErrorResponse. Field names are snake_case; zero-valued optional fields are
// omitted. Every float vector of a request is a Vector: base64 little-endian
// float32, as this module's Go code sends it, or a plain array of numbers, as
// curl and other clients do.

// SearchOptionsJSON is the query-tuning surface shared by search and
// search_batch requests: the fields of p2h.SearchOptions that survive a
// network boundary (Filter is an arbitrary function and Profile a live
// pointer; neither has a wire form, and the paper's ablation switches —
// Preference, DisablePointBall, DisablePointCone — are for in-process
// experiments only).
type SearchOptionsJSON struct {
	// K is the number of neighbors to return (zero: 1).
	K int `json:"k,omitempty"`
	// Budget caps candidate verifications (zero or negative: exact). The
	// tree kinds spend it best-first, so a larger budget never answers
	// worse and a budget of n answers exactly.
	Budget int `json:"budget,omitempty"`
	// Filter is a declarative attribute predicate (p2h.Pred's JSON form:
	// tag / any_tag / field+min/max / and / or / not) restricting the search
	// to matching points. Unlike an in-process Filter closure it survives
	// the network boundary, stays cacheable, and the tree kinds push it down
	// into traversal.
	Filter *p2h.Pred `json:"filter,omitempty"`
	// TimeoutMS is the client's deadline for the whole request in
	// milliseconds, capped by the daemon's max_timeout. Zero applies the
	// daemon's default. A request that misses its deadline answers 504 with
	// no results; one that expires while still queued never touches the
	// index.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// toOptions validates and converts the wire options.
func (o SearchOptionsJSON) toOptions() (core.SearchOptions, error) {
	opts := core.SearchOptions{K: o.K, Budget: o.Budget}
	if o.K < 0 {
		return opts, fmt.Errorf("%w: negative k %d", ErrBadRequest, o.K)
	}
	if o.TimeoutMS < 0 {
		return opts, fmt.Errorf("%w: negative timeout_ms %d", ErrBadRequest, o.TimeoutMS)
	}
	if o.Filter != nil {
		if err := o.Filter.Validate(); err != nil {
			return opts, fmt.Errorf("%w: filter: %v", ErrBadRequest, err)
		}
		opts.Pred = o.Filter
	}
	return opts, nil
}

// SearchRequest asks one top-k hyperplane query. The hyperplane arrives
// either as the full query vector (normal components then offset, dim+1
// values) or as a separate normal and offset; exactly one form must be set.
type SearchRequest struct {
	Query  Vector  `json:"query,omitempty"`
	Normal Vector  `json:"normal,omitempty"`
	Offset float64 `json:"offset,omitempty"`
	SearchOptionsJSON
}

// query assembles and validates the hyperplane against the index's raw
// dimensionality dim.
func (r *SearchRequest) query(dim int) ([]float32, error) {
	return assembleQuery(r.Query, r.Normal, r.Offset, dim)
}

func assembleQuery(query, normal []float32, offset float64, dim int) ([]float32, error) {
	var q []float32
	switch {
	case query != nil && normal != nil:
		return nil, fmt.Errorf("%w: \"query\" and \"normal\" are mutually exclusive", ErrBadRequest)
	case query != nil:
		q = query
	case normal != nil:
		q = make([]float32, len(normal)+1)
		copy(q, normal)
		q[len(normal)] = float32(offset)
	default:
		return nil, fmt.Errorf("%w: missing \"query\" (or \"normal\"+\"offset\")", ErrBadRequest)
	}
	if _, err := core.CheckQuery(q, dim); err != nil {
		return nil, err
	}
	return q, nil
}

// ResultJSON is one search answer.
type ResultJSON struct {
	ID   int32   `json:"id"`
	Dist float64 `json:"dist"`
}

// StatsJSON is the wire form of core.Stats.
type StatsJSON struct {
	IPCount       int64 `json:"ip_count"`
	Candidates    int64 `json:"candidates"`
	NodesVisited  int64 `json:"nodes_visited"`
	LeavesVisited int64 `json:"leaves_visited"`
	PrunedNodes   int64 `json:"pruned_nodes"`
	PrunedPoints  int64 `json:"pruned_points"`
	BucketProbes  int64 `json:"bucket_probes"`
	CollabIPs     int64 `json:"collab_ips"`
	// FilterSkipped* count whole subtrees (and the points under them) a
	// pushed-down predicate proved unmatchable without visiting.
	FilterSkippedNodes  int64 `json:"filter_skipped_nodes,omitempty"`
	FilterSkippedPoints int64 `json:"filter_skipped_points,omitempty"`
}

func toStatsJSON(s core.Stats) StatsJSON {
	return StatsJSON{
		IPCount:             s.IPCount,
		Candidates:          s.Candidates,
		NodesVisited:        s.NodesVisited,
		LeavesVisited:       s.LeavesVisited,
		PrunedNodes:         s.PrunedNodes,
		PrunedPoints:        s.PrunedPoints,
		BucketProbes:        s.BucketProbes,
		CollabIPs:           s.CollabIPs,
		FilterSkippedNodes:  s.FilterSkippedNodes,
		FilterSkippedPoints: s.FilterSkippedPoints,
	}
}

func toResultsJSON(res []core.Result) []ResultJSON {
	out := make([]ResultJSON, len(res))
	for i, r := range res {
		out[i] = ResultJSON{ID: r.ID, Dist: r.Dist}
	}
	return out
}

// SearchResponse answers SearchRequest.
type SearchResponse struct {
	Results []ResultJSON `json:"results"`
	Stats   StatsJSON    `json:"stats"`
}

// BatchSearchRequest asks many queries with shared options; each row is a
// full (normal; offset) query vector.
type BatchSearchRequest struct {
	Queries []Vector `json:"queries"`
	SearchOptionsJSON
}

// BatchSearchResponse answers BatchSearchRequest: per-query results in
// request order plus work counters aggregated over the whole batch.
type BatchSearchResponse struct {
	Results [][]ResultJSON `json:"results"`
	Stats   StatsJSON      `json:"stats"`
}

// InsertRequest adds one raw point (dim values) to a mutable index,
// optionally with an attribute payload predicates can filter on.
type InsertRequest struct {
	Point Vector `json:"point"`
	// Attrs carries the point's tags and numeric fields; with a WAL
	// attached the payload is journaled alongside the vector.
	Attrs *p2h.PointAttrs `json:"attrs,omitempty"`
}

// InsertResponse carries the stable handle Insert assigned.
type InsertResponse struct {
	Handle int32 `json:"handle"`
}

// DeleteResponse reports a point deletion.
type DeleteResponse struct {
	Deleted bool  `json:"deleted"`
	Handle  int32 `json:"handle"`
}

// SnapshotRequest asks the daemon to persist an index to a server-side path.
type SnapshotRequest struct {
	Path string `json:"path"`
}

// SnapshotResponse reports a written snapshot.
type SnapshotResponse struct {
	Path  string `json:"path"`
	Bytes int64  `json:"bytes"`
}

// LoadRequest stands up (or, with Replace, hot-swaps) a named index.
type LoadRequest struct {
	IndexConfig
	// Replace allows overwriting an already-loaded name: the new index is
	// built first, swapped in atomically, and the old one drained away.
	Replace bool `json:"replace,omitempty"`
}

// UnloadResponse reports an index unload.
type UnloadResponse struct {
	Unloaded bool `json:"unloaded"`
	// Drained is false when in-flight queries did not finish within the
	// manager's drain timeout; the index is gone from the table either way.
	Drained bool `json:"drained"`
}

// ServerStatsJSON is the wire form of p2h.ServerStats.
type ServerStatsJSON struct {
	Queries     int64  `json:"queries"`
	Batches     int64  `json:"batches"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
	Inserts     int64  `json:"inserts"`
	Deletes     int64  `json:"deletes"`
	Epoch       uint64 `json:"epoch"`
	Compactions int64  `json:"compactions"`
	// PendingDelta is the un-folded delta (insert buffer + tombstones)
	// searches currently pay for; rebuilds and compactions reset it.
	PendingDelta int `json:"pending_delta"`
	// Shed counts deadline-carrying searches rejected by admission control
	// (HTTP 429); Expired counts searches whose deadline fired before any
	// index work ran; Panics counts panics raised while serving, returned to
	// their caller.
	Shed    int64 `json:"shed"`
	Expired int64 `json:"expired"`
	Panics  int64 `json:"panics"`
	// DegradedQueries counts searches whose budget the degradation ceiling
	// clamped; BudgetCeiling is the current cap (zero: serving exact);
	// Backlog is the admitted-but-unfinished query count right now.
	DegradedQueries int64 `json:"degraded_queries"`
	BudgetCeiling   int   `json:"budget_ceiling"`
	Backlog         int64 `json:"backlog"`
	// FilterSkipped* accumulate predicate-pushdown pruning across every
	// search the index actually ran: whole subtrees the per-node attribute
	// summaries proved could not match, and the points under them.
	FilterSkippedNodes  int64 `json:"filter_skipped_nodes"`
	FilterSkippedPoints int64 `json:"filter_skipped_points"`
}

func toServerStatsJSON(s p2h.ServerStats) ServerStatsJSON {
	return ServerStatsJSON{
		Queries:         s.Queries,
		Batches:         s.Batches,
		CacheHits:       s.CacheHits,
		CacheMisses:     s.CacheMisses,
		Inserts:         s.Inserts,
		Deletes:         s.Deletes,
		Epoch:           s.Epoch,
		Compactions:     s.Compactions,
		PendingDelta:    s.PendingDelta,
		Shed:            s.Shed,
		Expired:         s.Expired,
		Panics:          s.Panics,
		DegradedQueries: s.DegradedQueries,
		BudgetCeiling:   s.BudgetCeiling,
		Backlog:         s.Backlog,

		FilterSkippedNodes:  s.FilterSkippedNodes,
		FilterSkippedPoints: s.FilterSkippedPoints,
	}
}

// WALInfoJSON describes an index's attached write-ahead log.
type WALInfoJSON struct {
	// Path is the log file's location.
	Path string `json:"path"`
	// Sync is the fsync policy, "always" or "none".
	Sync string `json:"sync"`
	// Records is the current pending record count — acknowledged mutations
	// not yet absorbed by a snapshot.
	Records int64 `json:"records"`
	// Replayed is the pending record count the load-time replay consumed to
	// restore the pre-crash state.
	Replayed int `json:"replayed"`
	// Syncs is the number of fsyncs the log has issued; under group commit
	// the ratio Records/Syncs is the amortization factor concurrent durable
	// writers achieved.
	Syncs int64 `json:"syncs"`
}

// IndexInfoResponse describes one served index.
type IndexInfoResponse struct {
	Name       string          `json:"name"`
	Kind       string          `json:"kind"`
	Dim        int             `json:"dim"`
	N          int             `json:"n"`
	IndexBytes int64           `json:"index_bytes"`
	Mutable    bool            `json:"mutable"`
	Stats      ServerStatsJSON `json:"stats"`
	// WAL describes the attached write-ahead log, when the index has one.
	WAL *WALInfoJSON `json:"wal,omitempty"`
	// Source is the declaration the index was stood up from (the container
	// path, or the spec and data file).
	Source IndexConfig `json:"source"`
}

// ListResponse enumerates the served indexes, sorted by name.
type ListResponse struct {
	Indexes []IndexInfoResponse `json:"indexes"`
}

// HealthResponse answers GET /healthz. A served daemon has by definition
// finished every load-time WAL replay (indexes only enter the table fully
// recovered), so WALReplayedRecords reporting alongside "ok" doubles as
// the replay-completion signal crash-recovery probes look for.
//
// Status is "ok" (200), or "draining"/"swapping" (503) while the daemon is
// shutting down or an index hot-swap is retiring its old engine — the signal
// load balancers use to stop routing before connections start resetting.
// Degraded reporting true (still 200) means at least one index is serving
// under an SLO-controller budget ceiling: answers are approximate until load
// recedes.
type HealthResponse struct {
	Status        string `json:"status"`
	Indexes       int    `json:"indexes"`
	UptimeSeconds int64  `json:"uptime_seconds"`
	// Reason explains a non-ok status in human-readable form.
	Reason string `json:"reason,omitempty"`
	// Degraded reports whether any index currently serves with a budget
	// ceiling; DegradedIndexes counts them.
	Degraded        bool `json:"degraded,omitempty"`
	DegradedIndexes int  `json:"degraded_indexes,omitempty"`
	// WALIndexes counts loaded indexes with a write-ahead log attached.
	WALIndexes int `json:"wal_indexes"`
	// WALReplayedRecords totals the pending records consumed by load-time
	// replays across those indexes.
	WALReplayedRecords int `json:"wal_replayed_records"`
	// WALPendingRecords totals the records currently in the logs.
	WALPendingRecords int64 `json:"wal_pending_records"`
}

// ErrorResponse is the uniform error envelope: a stable machine-readable
// code plus a human-readable message.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}
