package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	p2h "p2h"
)

// Duration is a time.Duration that JSON-decodes from a Go duration string
// ("150ms", "2s") or a plain number of nanoseconds, so config files read
// naturally.
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return err
		}
		*d = Duration(v)
		return nil
	}
	n, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return fmt.Errorf("duration must be a string like \"100ms\" or nanoseconds: %w", err)
	}
	*d = Duration(n)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// IndexConfig declares one named index: either a saved container to open
// (Path) or a Spec to build, optionally over an fvecs data file (Data; a
// dynamic Spec with Dim set may start empty). Exactly one of Path and Spec
// must be set.
type IndexConfig struct {
	// Path names a .p2h container written by p2h.Save; the container
	// records its own kind and tuning.
	Path string `json:"path,omitempty"`
	// Spec declares an index to build, exactly as p2h.New takes it.
	Spec *p2h.Spec `json:"spec,omitempty"`
	// Data is the fvecs file the Spec is built over.
	Data string `json:"data,omitempty"`
	// WAL attaches a write-ahead log at Path + ".wal": pending records are
	// replayed on load and every acknowledged mutation is journaled, so a
	// daemon crash loses nothing. Requires Path (durability needs a
	// container to recover into) and a dynamic container.
	WAL bool `json:"wal,omitempty"`
	// WALSync is the log's fsync policy, "always" (default) or "none".
	WALSync string `json:"wal_sync,omitempty"`
}

func (c IndexConfig) validate() error {
	switch {
	case c.Path != "" && (c.Spec != nil || c.Data != ""):
		return fmt.Errorf("%w: \"path\" excludes \"spec\" and \"data\"", ErrBadConfig)
	case c.Path == "" && c.Spec == nil:
		return fmt.Errorf("%w: need \"path\" or \"spec\"", ErrBadConfig)
	case c.WAL && c.Path == "":
		return fmt.Errorf("%w: \"wal\" requires \"path\"", ErrBadConfig)
	case !c.WAL && c.WALSync != "":
		return fmt.Errorf("%w: \"wal_sync\" without \"wal\"", ErrBadConfig)
	}
	if c.WAL {
		if _, err := p2h.ParseWALSyncMode(c.WALSync); err != nil {
			return fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
	}
	return nil
}

// ServerConfig tunes the per-index serving engines; zero values select the
// p2h.ServerOptions defaults.
type ServerConfig struct {
	Workers      int `json:"workers,omitempty"`
	CacheEntries int `json:"cache_entries,omitempty"`
	// MaxQueue statically caps each index's admitted-but-unfinished queries
	// (zero: 64*workers; negative: admission control off).
	MaxQueue int `json:"max_queue,omitempty"`
	// MaxQueueDelay bounds the queueing delay admission control accepts
	// (zero: 50ms); when the backlog's expected drain time exceeds it, new
	// deadline-carrying searches are shed with 429 + Retry-After.
	MaxQueueDelay Duration `json:"max_queue_delay,omitempty"`
}

// Options converts to the p2h serving options.
func (c ServerConfig) Options() p2h.ServerOptions {
	return p2h.ServerOptions{
		Workers:       c.Workers,
		CacheEntries:  c.CacheEntries,
		MaxQueue:      c.MaxQueue,
		MaxQueueDelay: time.Duration(c.MaxQueueDelay),
	}
}

// DefaultDrainTimeout bounds how long unload, hot-swap retirement and
// shutdown wait for in-flight queries before abandoning the old engine.
const DefaultDrainTimeout = 10 * time.Second

// Config is the p2hd daemon configuration: the listen address, engine
// tuning, the drain bound, and the indexes to stand up at startup.
type Config struct {
	// Listen is the address the daemon binds ("127.0.0.1:8080"; the p2hd
	// -listen flag overrides it).
	Listen string `json:"listen,omitempty"`
	// DrainTimeout bounds shutdown and unload waits (zero: 10s).
	DrainTimeout Duration `json:"drain_timeout,omitempty"`
	// MaxTimeout caps any client timeout_ms and is the deadline of requests
	// that name none (zero: 30s) — every search the daemon runs carries a
	// deadline.
	MaxTimeout Duration `json:"max_timeout,omitempty"`
	// Server tunes every index's serving engine.
	Server ServerConfig `json:"server,omitempty"`
	// SLO, when present, runs the latency feedback controller: per-index p99
	// is sampled every 500ms and the budget ceiling stepped down (bounded,
	// with hysteresis) while the objective is breached — approximate-but-fast
	// under spike, exact again as load recedes.
	SLO *SLOConfig `json:"slo,omitempty"`
	// Indexes maps index names to their declarations.
	Indexes map[string]IndexConfig `json:"indexes,omitempty"`
}

// LoadConfig reads and validates a JSON config file. Unknown fields are
// rejected — a typo'd tuning key must fail startup, not silently run with
// defaults — matching the strictness of the HTTP admin endpoints.
func LoadConfig(path string) (Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	var cfg Config
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("httpapi: config %s: %w", path, err)
	}
	for name, ic := range cfg.Indexes {
		if err := checkName(name); err != nil {
			return Config{}, fmt.Errorf("httpapi: config %s: index %q: %w", path, name, err)
		}
		if err := ic.validate(); err != nil {
			return Config{}, fmt.Errorf("httpapi: config %s: index %q: %w", path, name, err)
		}
	}
	if cfg.SLO != nil {
		if err := cfg.SLO.validate(); err != nil {
			return Config{}, fmt.Errorf("httpapi: config %s: %w", path, err)
		}
	}
	return cfg, nil
}

// DrainTimeoutOrDefault resolves the configured drain bound, applying
// DefaultDrainTimeout when unset — the one place the default is decided.
func (c Config) DrainTimeoutOrDefault() time.Duration {
	if c.DrainTimeout <= 0 {
		return DefaultDrainTimeout
	}
	return time.Duration(c.DrainTimeout)
}

// HandlerOptions resolves the config's request-deadline policy for
// NewHandlerWithOptions.
func (c Config) HandlerOptions() HandlerOptions {
	return HandlerOptions{MaxTimeout: time.Duration(c.MaxTimeout)}
}
