package cluster

import (
	"context"
	"sort"
)

// StatusRow is one member×shard line of a cluster status report: where one
// copy of one shard lives, what it holds, and how far a replica trails its
// primary.
type StatusRow struct {
	// Index is the logical index name; Shard its position in the partition
	// map; MemberIndex the index name the copy is served under.
	Index       string
	Shard       int
	MemberIndex string
	// Member holds the copy; Role is "primary" or "replica"; State is the
	// member's probed health.
	Member string
	Role   string
	State  string
	// Points and Epoch describe the served copy; -1 when unreachable.
	Points int
	Epoch  int64
	// Lag is a replica's mutation epochs behind its primary; -1 when either
	// side is unreachable (and 0 for primaries).
	Lag int64
	// Err carries the probe failure for unreachable copies.
	Err string
}

// Status probes a cluster config directly — no router needed — and reports
// per-member health and per-shard placement, snapshot versions and
// replication lag. Members are probed concurrently; probeTimeout bounds each
// call.
func Status(ctx context.Context, cfg Config) ([]StatusRow, map[string]MemberStatus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		return nil, nil, err
	}
	rt.probeRound()
	health, _ := rt.Health()

	type copyRef struct {
		index, memberIndex, member, role string
		shard                            int
	}
	var copies []copyRef
	for _, name := range rt.IndexNames() {
		ri := rt.indexes[name]
		for si, rs := range ri.shards {
			copies = append(copies, copyRef{name, rs.cfg.Index, rs.cfg.Primary, "primary", si})
			for _, rep := range rs.cfg.Replicas {
				copies = append(copies, copyRef{name, rs.cfg.Index, rep, "replica", si})
			}
		}
	}

	rows := make([]StatusRow, len(copies))
	done := make(chan int, len(copies))
	for i, c := range copies {
		go func(i int, c copyRef) {
			defer func() { done <- i }()
			row := StatusRow{
				Index: c.index, Shard: c.shard, MemberIndex: c.memberIndex,
				Member: c.member, Role: c.role,
				State:  rt.members[c.member].getState().String(),
				Points: -1, Epoch: -1, Lag: -1,
			}
			cctx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			info, err := rt.members[c.member].indexInfo(cctx, c.memberIndex)
			if err != nil {
				row.Err = err.Error()
			} else {
				row.Points = info.N
				row.Epoch = int64(info.Stats.Epoch)
			}
			rows[i] = row
		}(i, c)
	}
	for range copies {
		<-done
	}

	// Replication lag: epochs behind the shard's primary.
	primaryEpoch := make(map[[2]any]int64)
	for _, row := range rows {
		if row.Role == "primary" {
			primaryEpoch[[2]any{row.Index, row.Shard}] = row.Epoch
		}
	}
	for i := range rows {
		if rows[i].Epoch < 0 {
			continue
		}
		if rows[i].Role == "primary" {
			rows[i].Lag = 0
			continue
		}
		if pe, ok := primaryEpoch[[2]any{rows[i].Index, rows[i].Shard}]; ok && pe >= 0 {
			rows[i].Lag = pe - rows[i].Epoch
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		if a.Role != b.Role {
			return a.Role == "primary"
		}
		return a.Member < b.Member
	})
	return rows, health.Members, nil
}
