package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	p2h "p2h"
)

// runOK runs the tool and fails the test on a non-zero exit.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out, errw bytes.Buffer
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("p2htool %v: exit %d\nstderr: %s", args, code, errw.String())
	}
	return out.String()
}

func TestEndToEndPipeline(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.fvecs")
	queries := filepath.Join(dir, "q.fvecs")
	index := filepath.Join(dir, "ix.p2h")

	out := runOK(t, "gen", "-set", "Sift", "-n", "500", "-seed", "1", "-out", data)
	if !strings.Contains(out, "wrote 500 points") {
		t.Fatalf("gen output: %s", out)
	}
	out = runOK(t, "queries", "-data", data, "-nq", "5", "-out", queries)
	if !strings.Contains(out, "wrote 5 hyperplane queries") {
		t.Fatalf("queries output: %s", out)
	}
	out = runOK(t, "build", "-index", "bctree", "-data", data, "-leafsize", "50", "-out", index)
	if !strings.Contains(out, "built bctree over 500 points") {
		t.Fatalf("build output: %s", out)
	}
	// The container is self-describing: no kind flag on the read side.
	out = runOK(t, "info", "-load", index)
	if !strings.Contains(out, "type=bctree") || !strings.Contains(out, "points=500") {
		t.Fatalf("info output: %s", out)
	}
	out = runOK(t, "search", "-load", index, "-queries", queries, "-k", "3")
	if !strings.Contains(out, "query 0:") || !strings.Contains(out, "5 queries in") {
		t.Fatalf("search output: %s", out)
	}
	// Each query line carries exactly k results.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "query ") {
			if got := strings.Count(line, "("); got != 3 {
				t.Fatalf("query line has %d results, want 3: %s", got, line)
			}
		}
	}
}

// TestBuildEveryPersistableKind drives the build->info round trip through
// the registry for every kind that persists, including spec-only parameters.
func TestBuildEveryPersistableKind(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.fvecs")
	runOK(t, "gen", "-set", "Music", "-n", "300", "-out", data)

	cases := []struct {
		kind string
		spec string
	}{
		{"balltree", ""},
		{"bctree", ""},
		{"sharded", `{"shards":3,"workers":2}`},
		{"dynamic", `{"compact_fraction":0.5}`},
	}
	for _, c := range cases {
		index := filepath.Join(dir, "ix-"+c.kind+".p2h")
		args := []string{"build", "-index", c.kind, "-data", data, "-out", index}
		if c.spec != "" {
			args = append(args, "-spec", c.spec)
		}
		out := runOK(t, args...)
		if !strings.Contains(out, "built "+c.kind+" over 300 points") {
			t.Fatalf("%s build output: %s", c.kind, out)
		}
		out = runOK(t, "info", "-load", index)
		if !strings.Contains(out, "type="+c.kind) || !strings.Contains(out, "points=300") {
			t.Fatalf("%s info output: %s", c.kind, out)
		}
	}
}

// TestSpecCarriesKind checks that -spec alone selects the kind and that an
// explicit -index flag wins over the spec's kind.
func TestSpecCarriesKind(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.fvecs")
	index := filepath.Join(dir, "ix.p2h")
	runOK(t, "gen", "-set", "Music", "-n", "200", "-out", data)

	out := runOK(t, "build", "-spec", `{"kind":"balltree","leaf_size":25}`, "-data", data, "-out", index)
	if !strings.Contains(out, "built balltree") {
		t.Fatalf("spec kind not honored: %s", out)
	}
	out = runOK(t, "build", "-index", "bc", "-spec", `{"kind":"balltree"}`, "-data", data, "-out", index)
	if !strings.Contains(out, "built bctree") {
		t.Fatalf("-index did not override spec kind: %s", out)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{},             // no subcommand
		{"frobnicate"}, // unknown subcommand
		{"gen"},        // missing -out
		{"gen", "-set", "Nope", "-out", "/tmp/x"}, // unknown set
		{"build", "-data", "/does/not/exist", "-out", "/tmp/x"},
		{"info", "-load", "/does/not/exist"},
		{"search", "-load", "/does/not/exist", "-queries", "/nope"},
		{"build", "-index", "wat", "-data", "/tmp/x", "-out", "/tmp/y"},
		{"build", "-spec", "{not json", "-data", "/tmp/x", "-out", "/tmp/y"},
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code == 0 {
			t.Fatalf("p2htool %v: expected failure", args)
		}
	}
	// The retired fold threshold is refused by name, its replacement named.
	var out, errw bytes.Buffer
	if code := run([]string{"build", "-spec", `{"kind":"dynamic","rebuild_fraction":0.5}`, "-data", "/tmp/x", "-out", "/tmp/y"}, &out, &errw); code == 0 ||
		!strings.Contains(errw.String(), "compact_fraction") {
		t.Fatalf("rebuild_fraction spec: exit %d, stderr %q", code, errw.String())
	}
}

// TestBuildOnlyKindRefusesSave: the baselines (hashing kinds, the KD-Tree)
// build through the registry but document themselves as build-only, so
// `build` (whose point is the saved file) reports a clear error instead of
// writing garbage.
func TestBuildOnlyKindRefusesSave(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.fvecs")
	runOK(t, "gen", "-set", "Music", "-n", "100", "-out", data)
	for _, kind := range []string{"nh", "kdtree"} {
		var out, errw bytes.Buffer
		if code := run([]string{"build", "-index", kind, "-data", data,
			"-out", filepath.Join(dir, "ix.p2h")}, &out, &errw); code != 1 {
			t.Fatalf("%s: exit %d", kind, code)
		}
		if !strings.Contains(errw.String(), "build-only") {
			t.Fatalf("%s: stderr: %s", kind, errw.String())
		}
	}
}

func TestQueryDimensionMismatch(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.fvecs")
	other := filepath.Join(dir, "other.fvecs")
	index := filepath.Join(dir, "ix.p2h")
	runOK(t, "gen", "-set", "Sift", "-n", "200", "-out", data)   // d=128
	runOK(t, "gen", "-set", "Music", "-n", "200", "-out", other) // d=100
	runOK(t, "build", "-index", "bctree", "-data", data, "-out", index)
	var out, errw bytes.Buffer
	if code := run([]string{"search", "-load", index, "-queries", other}, &out, &errw); code != 1 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(errw.String(), "dimension") {
		t.Fatalf("stderr: %s", errw.String())
	}
}

func TestHelp(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"help"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "usage:") {
		t.Fatalf("help output: %s", out.String())
	}
}

func TestEvalSubcommand(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.fvecs")
	queries := filepath.Join(dir, "q.fvecs")
	index := filepath.Join(dir, "ix.p2h")
	runOK(t, "gen", "-set", "Sift", "-n", "800", "-out", data)
	runOK(t, "queries", "-data", data, "-nq", "5", "-out", queries)
	runOK(t, "build", "-index", "bctree", "-data", data, "-out", index)

	out := runOK(t, "eval", "-load", index,
		"-data", data, "-queries", queries, "-k", "5", "-budgets", "0.05,1.0")
	if !strings.Contains(out, "recall") {
		t.Fatalf("eval output:\n%s", out)
	}
	// Full budget line must report exact recall, as a four-digit fraction.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if f := strings.Fields(lines[len(lines)-1]); len(f) < 2 || f[0] != "100.0%" || f[1] != "1.0000" {
		t.Fatalf("full budget not exact: %s", lines[len(lines)-1])
	}

	// Bad budget fractions are rejected.
	var outw, errw bytes.Buffer
	if code := run([]string{"eval", "-load", index,
		"-data", data, "-queries", queries, "-budgets", "nope"}, &outw, &errw); code != 1 {
		t.Fatalf("exit %d", code)
	}
	// Mismatched data dimensions are rejected.
	other := filepath.Join(dir, "other.fvecs")
	runOK(t, "gen", "-set", "Music", "-n", "100", "-out", other)
	if code := run([]string{"eval", "-load", index,
		"-data", other, "-queries", queries}, &outw, &errw); code != 1 {
		t.Fatalf("exit %d", code)
	}
}

// TestEvalBuildsOrLoads drives eval's two sources: -index/-spec build any
// kind over -data in process, -load sweeps a saved container; giving both,
// or neither, is refused, as are unknown kinds, bad spec JSON and missing
// files.
func TestEvalBuildsOrLoads(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.fvecs")
	queries := filepath.Join(dir, "q.fvecs")
	index := filepath.Join(dir, "ix.p2h")
	runOK(t, "gen", "-set", "Music", "-n", "600", "-out", data)
	runOK(t, "queries", "-data", data, "-nq", "4", "-out", queries)

	out := runOK(t, "eval", "-index", "sharded", "-spec", `{"shards":3,"workers":2}`,
		"-data", data, "-queries", queries, "-k", "3")
	if !strings.Contains(out, "index: sharded built") || !strings.Contains(out, "nodes/query") {
		t.Fatalf("eval output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if f := strings.Fields(lines[len(lines)-1]); len(f) < 2 || f[0] != "100.0%" || f[1] != "1.0000" {
		t.Fatalf("full budget not exact: %s", lines[len(lines)-1])
	}

	runOK(t, "build", "-index", "bctree", "-data", data, "-out", index)
	out = runOK(t, "eval", "-load", index, "-data", data, "-queries", queries, "-k", "3")
	if !strings.Contains(out, "index: bctree loaded") {
		t.Fatalf("eval output:\n%s", out)
	}

	for _, args := range [][]string{
		{"-index", "nope"},
		{"-spec", "{bad"},
		{"-load", filepath.Join(dir, "missing.p2h")},
		{"-load", index, "-index", "bctree"},
		{},
	} {
		args = append([]string{"eval", "-data", data, "-queries", queries}, args...)
		var o, e bytes.Buffer
		if code := run(args, &o, &e); code != 1 || e.Len() == 0 {
			t.Fatalf("%v: exit %d, stderr: %s", args, code, e.String())
		}
	}
}

func TestInspectSubcommand(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.fvecs")
	index := filepath.Join(dir, "ix.p2h")
	runOK(t, "gen", "-set", "Sift", "-n", "400", "-seed", "1", "-out", data)
	runOK(t, "build", "-index", "sharded", "-spec", `{"shards":3,"leaf_size":40}`, "-data", data, "-out", index)

	// Positional form.
	out := runOK(t, "inspect", index)
	for _, want := range []string{
		"kind=sharded", "dim=128", "points=400",
		`"kind":"sharded"`, `"shards":3`, `"leaf_size":40`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("inspect output missing %q:\n%s", want, out)
		}
	}
	// -load form agrees.
	if out2 := runOK(t, "inspect", "-load", index); out2 != out {
		t.Fatalf("-load form differs:\n%s\nvs\n%s", out2, out)
	}
	// No sidecar WAL, no wal line.
	if strings.Contains(out, "wal=") {
		t.Fatalf("inspect reports a WAL for a container without one:\n%s", out)
	}

	// A container whose sidecar WAL holds pending mutations reports them.
	dyn := filepath.Join(dir, "dyn.p2h")
	runOK(t, "build", "-index", "dynamic", "-spec", `{"leaf_size":40}`, "-data", data, "-out", dyn)
	ix, err := p2h.Open(dyn)
	if err != nil {
		t.Fatal(err)
	}
	wal, err := p2h.AttachWAL(ix, p2h.WALPath(dyn), p2h.WALSyncNone)
	if err != nil {
		t.Fatal(err)
	}
	srv := p2h.NewServer(ix, p2h.ServerOptions{WAL: wal})
	if _, err := srv.Insert(make([]float32, 128)); err != nil {
		t.Fatal(err)
	}
	if ok, err := srv.Delete(0); err != nil || !ok {
		t.Fatalf("delete: %v, %v", ok, err)
	}
	srv.Close()
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	out = runOK(t, "inspect", dyn)
	for _, want := range []string{"wal=" + p2h.WALPath(dyn), "pending=2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("inspect output missing %q:\n%s", want, out)
		}
	}

	// Errors: no path, extra args, not a container.
	var o, e bytes.Buffer
	if code := run([]string{"inspect"}, &o, &e); code != 1 {
		t.Fatalf("inspect without a path: exit %d", code)
	}
	if code := run([]string{"inspect", index, "extra"}, &o, &e); code != 1 {
		t.Fatalf("inspect with extra args: exit %d", code)
	}
	if code := run([]string{"inspect", data}, &o, &e); code != 1 {
		t.Fatalf("inspect of a non-container: exit %d", code)
	}
}
