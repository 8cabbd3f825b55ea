package httpapi

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	p2h "p2h"
)

func TestDurationJSON(t *testing.T) {
	for in, want := range map[string]time.Duration{
		`"150ms"`: 150 * time.Millisecond,
		`"2s"`:    2 * time.Second,
		`"1m30s"`: 90 * time.Second,
		`250000`:  250 * time.Microsecond, // plain nanoseconds
	} {
		var d Duration
		if err := json.Unmarshal([]byte(in), &d); err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if time.Duration(d) != want {
			t.Errorf("%s -> %v, want %v", in, time.Duration(d), want)
		}
	}
	var d Duration
	if err := json.Unmarshal([]byte(`"soonish"`), &d); err == nil {
		t.Error("bad duration string accepted")
	}
	b, err := json.Marshal(Duration(time.Second))
	if err != nil || string(b) != `"1s"` {
		t.Errorf("marshal: %s %v", b, err)
	}
}

func TestLoadConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p2hd.json")
	doc := `{
		"listen": "127.0.0.1:9999",
		"drain_timeout": "2s",
		"server": {"workers": 3, "cache_entries": 512, "max_queue": 96, "max_queue_delay": "20ms"},
		"indexes": {
			"trees": {"path": "trees.p2h"},
			"fresh": {"spec": {"kind": "bctree", "leaf_size": 50}, "data": "data.fvecs"}
		}
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Listen != "127.0.0.1:9999" || cfg.DrainTimeoutOrDefault() != 2*time.Second {
		t.Fatalf("config %+v", cfg)
	}
	opts := cfg.Server.Options()
	if opts.Workers != 3 || opts.CacheEntries != 512 || opts.MaxQueue != 96 || opts.MaxQueueDelay != 20*time.Millisecond {
		t.Fatalf("server options %+v", opts)
	}
	if cfg.Indexes["trees"].Path != "trees.p2h" {
		t.Fatalf("trees index %+v", cfg.Indexes["trees"])
	}
	fresh := cfg.Indexes["fresh"]
	if fresh.Spec == nil || fresh.Spec.Kind != p2h.KindBCTree || fresh.Spec.LeafSize != 50 || fresh.Data != "data.fvecs" {
		t.Fatalf("fresh index %+v", fresh)
	}
}

func TestLoadConfigRejectsBadDeclarations(t *testing.T) {
	dir := t.TempDir()
	for name, c := range map[string]struct {
		doc  string
		want error
	}{
		"bad name":         {`{"indexes": {"a/b": {"path": "x.p2h"}}}`, ErrBadName},
		"empty decl":       {`{"indexes": {"a": {}}}`, ErrBadConfig},
		"path and spec":    {`{"indexes": {"a": {"path": "x.p2h", "spec": {"kind": "bctree"}}}}`, ErrBadConfig},
		"wal without path": {`{"indexes": {"a": {"spec": {"kind": "dynamic", "dim": 4}, "wal": true}}}`, ErrBadConfig},
		"sync without wal": {`{"indexes": {"a": {"path": "x.p2h", "wal_sync": "none"}}}`, ErrBadConfig},
		"unknown wal sync": {`{"indexes": {"a": {"path": "x.p2h", "wal": true, "wal_sync": "fsync"}}}`, ErrBadConfig},
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(c.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadConfig(path); !errors.Is(err, c.want) {
			t.Errorf("%s: err %v, want %v", name, err, c.want)
		}
	}
	if _, err := LoadConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing config file accepted")
	}
	// The serving layer has no batching knobs; a config that still names one
	// is rejected like any other unknown key, not silently ignored.
	stale := filepath.Join(dir, "stale.json")
	if err := os.WriteFile(stale, []byte(`{"server": {"workers": 2, "max_batch": 8}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(stale); err == nil {
		t.Error("config with the removed \"max_batch\" key accepted")
	}
	bad := filepath.Join(dir, "syntax.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(bad); err == nil {
		t.Error("syntactically broken config accepted")
	}
	// drainTimeout default applies when unset.
	if (Config{}).DrainTimeoutOrDefault() != DefaultDrainTimeout {
		t.Error("zero drain timeout did not default")
	}
}

func TestLoadConfigRejectsUnknownKeys(t *testing.T) {
	dir := t.TempDir()
	for name, doc := range map[string]string{
		"typo'd top-level": `{"drain_timout": "30s"}`,
		"typo'd server":    `{"server": {"worker": 8}}`,
		"typo'd index":     `{"indexes": {"a": {"pathh": "x.p2h"}}}`,
	} {
		path := filepath.Join(dir, "cfg.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadConfig(path); err == nil {
			t.Errorf("%s: accepted silently", name)
		}
	}
}
