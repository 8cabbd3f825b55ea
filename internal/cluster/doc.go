// Package cluster is the distributed serving layer of p2hd: a scatter-gather
// router that lifts the in-process Sharded index's exact-merge semantics
// over HTTP onto a fleet of member daemons.
//
// A static partition map (Config) declares the cluster: the member daemons,
// and for each logical index the shards — which member index each shard is
// served as, which member is its primary, and which members hold replicas.
// The router fans every /search and /search_batch out to one member per
// shard, translates shard-local result ids back to global ids through the
// map, and merges the per-shard top-k lists in the canonical (Dist, ID)
// order internal/shard defines — so a cluster built from a shard.Plan
// partition answers byte-identically to a single-process Sharded index over
// the same data, up to the order of exact ties: a member tree numbers its
// points from zero and cuts a tie at the k-th distance by member-local id
// before the router translates, where Sharded's trees carry global ids. The
// two agree wherever a shard's IDs list ascends.
//
// Tail latency is defended with hedged requests: when a shard has a
// replica, a hedge is spawned to it after a delay derived from the primary
// member's observed p99, the first answer wins and the loser's request
// context is canceled. A transport failure falls back to the replica
// immediately, so a member crash mid-request costs one retry, not an error.
// A background prober tracks member /healthz states (respecting the
// daemon's draining/swapping 503s and degraded reporting) and routing
// prefers healthy members over degraded ones, avoiding draining and down
// members while any alternative exists.
//
// Replication rides the daemons' atomic snapshots: Ship streams a shard
// primary's /container snapshot to each replica's /restore endpoint, which
// hot-swaps it in without a restart. The router serves its own /healthz
// (member states), /metrics (fan-out latency, hedge and fallback counters,
// per-member request counts) and a /v1/indexes surface shaped like a member
// daemon's, so clients cannot tell a router from a single daemon.
package cluster
