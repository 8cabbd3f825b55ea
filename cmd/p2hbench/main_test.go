package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestRunBadFlag also pins the cut to one mode: the flags of the removed
// -durable/-chaos/-filter modes and of the single-index sweep (now
// `p2htool eval`) are usage errors like any unknown flag.
func TestRunBadFlag(t *testing.T) {
	for _, flag := range []string{"-bogus", "-durable", "-chaos", "-filter", "-repeat=3", "-slo=25ms", "-workers=4",
		"-index=bctree", `-spec={"shards":3}`, "-load=ix.p2h", "-n=600", "-quantize"} {
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
