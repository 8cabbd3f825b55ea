package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"p2h/internal/httpapi"
)

// Typed configuration errors.
var (
	// ErrBadConfig reports a partition map that cannot drive a router.
	ErrBadConfig = errors.New("cluster: invalid config")
)

// The router's timing. The hedge delay tracks each member's measured p99;
// these bound it and the health prober.
const (
	// probeInterval is the health-prober period.
	probeInterval = 1 * time.Second
	// probeTimeout bounds one /healthz probe.
	probeTimeout = 2 * time.Second
	// hedgeDelay is the hedge trigger before any latency has been observed
	// for a member (afterwards the member's p99 drives it).
	hedgeDelay = 20 * time.Millisecond
	// hedgeMinDelay floors the p99-derived hedge delay so a fast cluster
	// does not hedge every request on scheduling noise.
	hedgeMinDelay = 1 * time.Millisecond
	// hedgeMaxDelay caps the p99-derived hedge delay so one slow outlier
	// window cannot disable hedging entirely.
	hedgeMaxDelay = 500 * time.Millisecond
)

// MemberConfig declares one member daemon.
type MemberConfig struct {
	// URL is the member's base URL, e.g. "http://10.0.0.7:8080".
	URL string `json:"url"`
}

// ShardConfig declares one shard of a logical index: where it lives and how
// its shard-local result ids map back to global data ids (the identity
// when IDs is empty).
type ShardConfig struct {
	// Index is the index name this shard is served under on its members
	// (every member holding the shard uses the same name).
	Index string `json:"index"`
	// Primary names the member normally serving the shard.
	Primary string `json:"primary"`
	// Replicas name members holding copies, used for hedged requests and
	// failover; Ship refreshes them from the primary's snapshot.
	Replicas []string `json:"replicas,omitempty"`
	// IDs maps shard-local row ids to global data ids (the shard.Plan rows
	// the shard's index was built over). When set, merged results are
	// byte-identical to the in-process Sharded index over the same plan,
	// except that the member has already cut ties at its k-th distance by
	// shard-local id; list the ids in ascending order to make that the
	// global order too.
	IDs []int32 `json:"ids,omitempty"`
}

// IndexMap declares one logical index as an ordered list of shards; shard
// order is the in-process Sharded shard order (it fixes the budget split).
type IndexMap struct {
	// Shards lists the partitions, in shard.Plan order.
	Shards []ShardConfig `json:"shards"`
}

// Config is the router's static partition map plus its request-deadline
// bound: the members and the logical indexes with their shard placement.
type Config struct {
	// Listen is the router's bind address (the -listen flag overrides it).
	Listen string `json:"listen,omitempty"`
	// Members maps member names to their locations.
	Members map[string]MemberConfig `json:"members"`
	// Indexes maps logical index names to their partition maps.
	Indexes map[string]IndexMap `json:"indexes"`
	// MaxTimeout caps any client timeout_ms and is the deadline of requests
	// without one (zero: httpapi.DefaultMaxTimeout), exactly as on a member
	// daemon.
	MaxTimeout httpapi.Duration `json:"max_timeout,omitempty"`
}

// Validate checks the partition map: every shard must name a known primary,
// known replicas distinct from it, and a member-side index name.
func (c Config) Validate() error {
	if len(c.Members) == 0 {
		return fmt.Errorf("%w: no members", ErrBadConfig)
	}
	for name, mc := range c.Members {
		if name == "" {
			return fmt.Errorf("%w: member with empty name", ErrBadConfig)
		}
		if mc.URL == "" {
			return fmt.Errorf("%w: member %q: no url", ErrBadConfig, name)
		}
	}
	if len(c.Indexes) == 0 {
		return fmt.Errorf("%w: no indexes", ErrBadConfig)
	}
	for name, im := range c.Indexes {
		if len(im.Shards) == 0 {
			return fmt.Errorf("%w: index %q: no shards", ErrBadConfig, name)
		}
		for si, sc := range im.Shards {
			if sc.Index == "" {
				return fmt.Errorf("%w: index %q shard %d: no member index name", ErrBadConfig, name, si)
			}
			if _, ok := c.Members[sc.Primary]; !ok {
				return fmt.Errorf("%w: index %q shard %d: unknown primary %q", ErrBadConfig, name, si, sc.Primary)
			}
			seen := map[string]bool{sc.Primary: true}
			for _, rep := range sc.Replicas {
				if _, ok := c.Members[rep]; !ok {
					return fmt.Errorf("%w: index %q shard %d: unknown replica %q", ErrBadConfig, name, si, rep)
				}
				if seen[rep] {
					return fmt.Errorf("%w: index %q shard %d: member %q listed twice", ErrBadConfig, name, si, rep)
				}
				seen[rep] = true
			}
		}
	}
	return nil
}

// LoadConfig reads and validates a JSON partition map. Unknown fields are
// rejected, matching the member daemon's config strictness.
func LoadConfig(path string) (Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	var cfg Config
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("cluster: config %s: %w", path, err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, fmt.Errorf("cluster: config %s: %w", path, err)
	}
	return cfg, nil
}
