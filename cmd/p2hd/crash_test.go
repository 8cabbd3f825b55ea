package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	p2h "p2h"
	"p2h/internal/httpapi"
)

// daemon is one real p2hd subprocess — the only way to aim a SIGKILL at the
// serving stack without taking the test down with it.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startDaemonProcess execs the prebuilt binary and waits for its listen
// line to learn the bound port.
func startDaemonProcess(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewScanner(stdout)
	addr := make(chan string, 1)
	go func() {
		for lines.Scan() {
			if rest, ok := strings.CutPrefix(lines.Text(), "p2hd: listening on http://"); ok {
				addr <- rest
			}
		}
	}()
	select {
	case a := <-addr:
		return &daemon{cmd: cmd, base: "http://" + a}
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("daemon subprocess never announced its address")
		return nil
	}
}

// kill SIGKILLs the daemon — no shutdown hooks, no drain, no final fsync
// beyond what each acknowledged mutation already forced.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	_, _ = d.cmd.Process.Wait()
}

func (d *daemon) postJSON(t *testing.T, path string, body, out any) (int, error) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(d.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
	}
	return resp.StatusCode, nil
}

func (d *daemon) getJSON(t *testing.T, path string, out any) int {
	t.Helper()
	resp, err := http.Get(d.base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding: %v", path, err)
	}
	return resp.StatusCode
}

// TestDaemonCrashRecovery is the daemon-level crash-injection test: a real
// p2hd journaling under WALSyncAlways is SIGKILLed mid-insert-stream,
// repeatedly, and after every restart each acknowledged insert must still
// be there — an acknowledged handle deletes as live, the healthz replay
// counters account for the log, and the live count brackets exactly the
// acked range (an unacknowledged in-flight insert may or may not have
// reached the log; anything acked must have).
func TestDaemonCrashRecovery(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("SIGKILL semantics")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "p2hd.bin")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building p2hd: %v\n%s", err, out)
	}

	const dim = 6
	rng := rand.New(rand.NewSource(61))
	data := p2h.NewMatrix(80, dim)
	for i := range data.Data {
		data.Data[i] = float32(rng.NormFloat64())
	}
	ix, err := p2h.New(data, p2h.Spec{Kind: p2h.KindDynamic, LeafSize: 25, Seed: 5, CompactFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	container := filepath.Join(dir, "live.p2h")
	if err := p2h.SaveFile(container, ix); err != nil {
		t.Fatal(err)
	}
	args := []string{"-name", "live", "-load", container, "-wal", "-walsync", "always", "-workers", "2"}

	acked := []int32{}         // handles whose inserts were acknowledged
	ackedLo, ackedHi := 80, 80 // bracket on the recovered live count
	for cycle := 0; cycle < 3; cycle++ {
		d := startDaemonProcess(t, bin, args...)

		var health httpapi.HealthResponse
		if code := d.getJSON(t, "/healthz", &health); code != 200 || health.Status != "ok" {
			t.Fatalf("cycle %d: healthz %d %+v", cycle, code, health)
		}
		if health.WALIndexes != 1 {
			t.Fatalf("cycle %d: healthz reports %d WAL indexes, want 1", cycle, health.WALIndexes)
		}
		var info httpapi.IndexInfoResponse
		if code := d.getJSON(t, "/v1/indexes/live", &info); code != 200 {
			t.Fatalf("cycle %d: info %d", cycle, code)
		}
		if info.N < ackedLo || info.N > ackedHi {
			t.Fatalf("cycle %d: recovered %d live points, want within [%d, %d]", cycle, info.N, ackedLo, ackedHi)
		}
		// Recovery accounts for everything ever acked: points now live plus
		// an in-flight insert per earlier kill at most.
		if cycle > 0 && (info.WAL == nil || health.WALReplayedRecords != info.WAL.Replayed) {
			t.Fatalf("cycle %d: healthz replay %d disagrees with index info %+v", cycle, health.WALReplayedRecords, info.WAL)
		}
		// The live count may exceed the acked floor only via in-flight
		// inserts that reached the log before the kill; fold them into the
		// bracket's floor for the next cycle.
		ackedLo, ackedHi = info.N, info.N

		// Stream inserts; kill mid-stream after a random number of acks.
		killAfter := 30 + rng.Intn(40)
		for i := 0; ; i++ {
			p := make([]float32, dim)
			for j := range p {
				p[j] = rng.Float32()
			}
			var ir httpapi.InsertResponse
			code, err := d.postJSON(t, "/v1/indexes/live/insert", httpapi.InsertRequest{Point: p}, &ir)
			if err != nil || code != 200 {
				// The kill below races the last request; a failed call is
				// simply not acked.
				break
			}
			acked = append(acked, ir.Handle)
			ackedLo++
			ackedHi++
			if i >= killAfter {
				break
			}
		}
		d.kill()
		ackedHi++ // one in-flight insert may have reached the log unacked
	}

	// Final restart: everything ever acknowledged must be live.
	d := startDaemonProcess(t, bin, args...)
	defer d.kill()
	var info httpapi.IndexInfoResponse
	if code := d.getJSON(t, "/v1/indexes/live", &info); code != 200 {
		t.Fatalf("final info: %d", code)
	}
	if info.N < ackedLo || info.N > ackedHi {
		t.Fatalf("final: %d live points, want within [%d, %d]", info.N, ackedLo, ackedHi)
	}
	if info.WAL == nil || info.WAL.Replayed == 0 {
		t.Fatalf("final restart replayed nothing: %+v", info.WAL)
	}
	// Deleting an acked handle succeeds iff the insert survived; every
	// acked insert must have.
	for _, i := range []int{0, len(acked) / 3, 2 * len(acked) / 3, len(acked) - 1} {
		req, err := http.NewRequest(http.MethodDelete,
			fmt.Sprintf("%s/v1/indexes/live/points/%d", d.base, acked[i]), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var dr httpapi.DeleteResponse
		derr := json.NewDecoder(resp.Body).Decode(&dr)
		resp.Body.Close()
		if derr != nil || resp.StatusCode != 200 || !dr.Deleted {
			t.Fatalf("acked handle %d lost after recovery: code=%d deleted=%v err=%v",
				acked[i], resp.StatusCode, dr.Deleted, derr)
		}
	}

	// Snapshot absorbs the log: records drop to zero and a clean restart
	// replays nothing.
	snap := filepath.Join(dir, "snap.p2h")
	var sr httpapi.SnapshotResponse
	if code, err := d.postJSON(t, "/v1/indexes/live/snapshot", httpapi.SnapshotRequest{Path: container}, &sr); err != nil || code != 200 {
		t.Fatalf("snapshot: %d %v (%s)", code, err, snap)
	}
	if code := d.getJSON(t, "/v1/indexes/live", &info); code != 200 || info.WAL.Records != 0 {
		t.Fatalf("after snapshot: %+v", info.WAL)
	}
	d.kill()
	d2 := startDaemonProcess(t, bin, args...)
	defer d2.kill()
	if code := d2.getJSON(t, "/v1/indexes/live", &info); code != 200 || info.WAL.Replayed != 0 {
		t.Fatalf("post-snapshot restart: %+v", info.WAL)
	}
}
