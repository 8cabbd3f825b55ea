package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	p2h "p2h"
)

func TestRunSingleExperiment(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{
		"-exp", "table2", "-sets", "Music", "-scale", "0.01", "-nq", "3",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "Table II") || !strings.Contains(out.String(), "Music") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-exp", "nope"}, &out, &errw); code != 1 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(errw.String(), "unknown experiment") {
		t.Fatalf("stderr: %s", errw.String())
	}
}

// TestRunBadFlag also pins the cut to two modes: the flags of the removed
// -durable/-chaos/-filter modes are usage errors like any unknown flag.
func TestRunBadFlag(t *testing.T) {
	for _, flag := range []string{"-bogus", "-durable", "-chaos", "-filter", "-repeat=3", "-slo=25ms", "-workers=4"} {
		var out, errw bytes.Buffer
		if code := run([]string{flag}, &out, &errw); code != 2 {
			t.Fatalf("%s: exit %d", flag, code)
		}
	}
}

func TestRunUnknownSet(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-exp", "table2", "-sets", "NotASet"}, &out, &errw); code != 1 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(errw.String(), "unknown data set") {
		t.Fatalf("stderr: %s", errw.String())
	}
}

func TestRunWritesOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "res.txt")
	var out, errw bytes.Buffer
	code := run([]string{
		"-exp", "table2", "-sets", "Music", "-scale", "0.01", "-nq", "3", "-out", path,
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != out.String() {
		t.Fatal("file content differs from stdout")
	}
}

func TestRunCommaSeparatedExperiments(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{
		"-exp", "table2,fig5", "-sets", "Music", "-scale", "0.01", "-nq", "3",
		"-hashm", "4", "-leafsize", "25",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "=== table2 ===") || !strings.Contains(out.String(), "=== fig5 ===") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "table2", "-scale", "0.02", "-nq", "2",
		"-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestRunCustomIndexBenchmark drives the registry-backed single-index mode:
// -index/-spec build any registered kind, -load benchmarks a saved container.
func TestRunCustomIndexBenchmark(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{
		"-index", "sharded", "-spec", `{"shards":3,"workers":2}`,
		"-sets", "Music", "-n", "600", "-nq", "4", "-k", "3",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	s := out.String()
	if !strings.Contains(s, "index: sharded built") || !strings.Contains(s, "recall") {
		t.Fatalf("output:\n%s", s)
	}

	// Full-budget recall must be exact for a tree kind.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if last := lines[len(lines)-1]; !strings.Contains(last, "100.0%") {
		t.Fatalf("full budget not exact: %s", last)
	}

	// -load path: build+save with p2htool's library calls, then benchmark.
	dir := t.TempDir()
	data := p2h.Dedup(p2h.GenerateDataset("Music", 600, 1))
	ix, err := p2h.New(data, p2h.Spec{Kind: p2h.KindBCTree, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ixPath := filepath.Join(dir, "ix.p2h")
	if err := p2h.SaveFile(ixPath, ix); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errw.Reset()
	code = run([]string{"-load", ixPath, "-sets", "Music", "-n", "600", "-nq", "3"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "index: bctree loaded") {
		t.Fatalf("output:\n%s", out.String())
	}

	// Unknown kinds and bad spec JSON fail with a diagnostic.
	for _, args := range [][]string{
		{"-index", "nope", "-n", "200"},
		{"-spec", "{bad", "-n", "200"},
		{"-load", "/does/not/exist.p2h"},
	} {
		out.Reset()
		errw.Reset()
		if code := run(args, &out, &errw); code != 1 || errw.Len() == 0 {
			t.Fatalf("%v: exit %d, stderr: %s", args, code, errw.String())
		}
	}
}
