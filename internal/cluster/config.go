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

// Defaults for the knobs a config may omit.
const (
	// DefaultProbeInterval is the health-prober period.
	DefaultProbeInterval = 1 * time.Second
	// DefaultProbeTimeout bounds one /healthz probe.
	DefaultProbeTimeout = 2 * time.Second
	// DefaultHedgeDelay is the hedge trigger before any latency has been
	// observed for a member (afterwards the member's p99 drives it).
	DefaultHedgeDelay = 20 * time.Millisecond
	// DefaultHedgeMinDelay floors the p99-derived hedge delay so a fast
	// cluster does not hedge every request on scheduling noise.
	DefaultHedgeMinDelay = 1 * time.Millisecond
	// DefaultHedgeMaxDelay caps the p99-derived hedge delay so one slow
	// outlier window cannot disable hedging entirely.
	DefaultHedgeMaxDelay = 500 * time.Millisecond
)

// MemberConfig declares one member daemon.
type MemberConfig struct {
	// URL is the member's base URL, e.g. "http://10.0.0.7:8080".
	URL string `json:"url"`
}

// ShardConfig declares one shard of a logical index: where it lives and how
// its shard-local result ids map back to global data ids.
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
	// IDBase, for contiguous partitions, adds a constant offset to
	// shard-local ids instead of a full IDs table.
	IDBase *int32 `json:"id_base,omitempty"`
}

// IndexMap declares one logical index as an ordered list of shards; shard
// order is the in-process Sharded shard order (it fixes the budget split).
type IndexMap struct {
	// Shards lists the partitions, in shard.Plan order.
	Shards []ShardConfig `json:"shards"`
}

// HedgeConfig tunes the tail-latency hedging of shard fan-outs.
type HedgeConfig struct {
	// Disable turns hedging off (failover on error still happens).
	Disable bool `json:"disable,omitempty"`
	// Delay is the hedge trigger used before a member has latency history
	// (zero: DefaultHedgeDelay).
	Delay httpapi.Duration `json:"delay,omitempty"`
	// MinDelay floors the p99-derived trigger (zero: DefaultHedgeMinDelay).
	MinDelay httpapi.Duration `json:"min_delay,omitempty"`
	// MaxDelay caps the p99-derived trigger (zero: DefaultHedgeMaxDelay).
	MaxDelay httpapi.Duration `json:"max_delay,omitempty"`
}

// Config is the router's static partition map plus its tuning: the members,
// the logical indexes with their shard placement, probe cadence, hedging
// policy and request-deadline bounds.
type Config struct {
	// Listen is the router's bind address (the -listen flag overrides it).
	Listen string `json:"listen,omitempty"`
	// Members maps member names to their locations.
	Members map[string]MemberConfig `json:"members"`
	// Indexes maps logical index names to their partition maps.
	Indexes map[string]IndexMap `json:"indexes"`
	// ProbeInterval is the member health-probe period (zero:
	// DefaultProbeInterval).
	ProbeInterval httpapi.Duration `json:"probe_interval,omitempty"`
	// ProbeTimeout bounds one probe round-trip (zero: DefaultProbeTimeout).
	ProbeTimeout httpapi.Duration `json:"probe_timeout,omitempty"`
	// Hedge tunes hedged requests.
	Hedge HedgeConfig `json:"hedge,omitempty"`
	// MaxTimeout caps any client timeout_ms and backstops requests without
	// one (zero: httpapi.DefaultMaxTimeout), exactly as on a member daemon.
	MaxTimeout httpapi.Duration `json:"max_timeout,omitempty"`
	// DefaultTimeout is the deadline applied to requests naming no
	// timeout_ms (zero: MaxTimeout).
	DefaultTimeout httpapi.Duration `json:"default_timeout,omitempty"`
}

// Validate checks the partition map: every shard must name a known primary,
// known replicas distinct from it, a member-side index name, and at most one
// id-mapping form.
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
			if len(sc.IDs) > 0 && sc.IDBase != nil {
				return fmt.Errorf("%w: index %q shard %d: ids and id_base are mutually exclusive", ErrBadConfig, name, si)
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

// probeInterval resolves the probe period.
func (c Config) probeInterval() time.Duration {
	if d := time.Duration(c.ProbeInterval); d > 0 {
		return d
	}
	return DefaultProbeInterval
}

// probeTimeout resolves the probe bound.
func (c Config) probeTimeout() time.Duration {
	if d := time.Duration(c.ProbeTimeout); d > 0 {
		return d
	}
	return DefaultProbeTimeout
}

// hedgeDefaults resolves the hedging knobs.
func (c Config) hedgeDefaults() (delay, minDelay, maxDelay time.Duration) {
	delay, minDelay, maxDelay = DefaultHedgeDelay, DefaultHedgeMinDelay, DefaultHedgeMaxDelay
	if d := time.Duration(c.Hedge.Delay); d > 0 {
		delay = d
	}
	if d := time.Duration(c.Hedge.MinDelay); d > 0 {
		minDelay = d
	}
	if d := time.Duration(c.Hedge.MaxDelay); d > 0 {
		maxDelay = d
	}
	return delay, minDelay, maxDelay
}

// handlerOptions resolves the router's request-deadline policy, shared with
// the member daemons' handler code.
func (c Config) handlerOptions() httpapi.HandlerOptions {
	return httpapi.HandlerOptions{
		MaxTimeout:     time.Duration(c.MaxTimeout),
		DefaultTimeout: time.Duration(c.DefaultTimeout),
	}
}
