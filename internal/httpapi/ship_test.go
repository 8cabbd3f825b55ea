package httpapi

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"p2h"
)

// rawPost sends non-JSON bytes (container uploads) to the fixture daemon.
func (f *fixture) rawPost(t *testing.T, path string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := f.ts.Client().Post(f.ts.URL+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestContainerRestoreRoundTrip proves the two halves of snapshot shipping
// compose: the /container stream of one index restores under another name
// and answers queries byte-identically.
func TestContainerRestoreRoundTrip(t *testing.T) {
	f := newFixture(t)

	resp, err := f.ts.Client().Get(f.ts.URL + "/v1/indexes/trees/container")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("container answered %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-P2H-Kind"); got != "bctree" {
		t.Fatalf("X-P2H-Kind = %q, want bctree", got)
	}
	if n, _ := strconv.Atoi(resp.Header.Get("X-P2H-Points")); n != 300 {
		t.Fatalf("X-P2H-Points = %d, want 300", n)
	}
	if cl, _ := strconv.Atoi(resp.Header.Get("Content-Length")); cl != len(raw) {
		t.Fatalf("Content-Length %d but read %d bytes", cl, len(raw))
	}

	// Restore under a fresh name: 201, then an identical answer.
	status, body := f.rawPost(t, "/v1/indexes/copy/restore", raw)
	if status != http.StatusCreated {
		t.Fatalf("fresh restore answered %d: %s", status, body)
	}
	q := f.queries.Row(0)
	s1, a1 := f.do(t, http.MethodPost, "/v1/indexes/trees/search", SearchRequest{Query: q, SearchOptionsJSON: SearchOptionsJSON{K: 10}})
	s2, a2 := f.do(t, http.MethodPost, "/v1/indexes/copy/search", SearchRequest{Query: q, SearchOptionsJSON: SearchOptionsJSON{K: 10}})
	if s1 != http.StatusOK || s2 != http.StatusOK {
		t.Fatalf("search answered %d / %d", s1, s2)
	}
	if !bytes.Equal(a1, a2) {
		t.Fatalf("restored copy answers differently:\n%s\nvs\n%s", a1, a2)
	}

	// Restoring again over the same name hot-swaps: 200.
	status, body = f.rawPost(t, "/v1/indexes/copy/restore", raw)
	if status != http.StatusOK {
		t.Fatalf("replacing restore answered %d: %s", status, body)
	}
	s3, a3 := f.do(t, http.MethodPost, "/v1/indexes/copy/search", SearchRequest{Query: q, SearchOptionsJSON: SearchOptionsJSON{K: 10}})
	if s3 != http.StatusOK || !bytes.Equal(a1, a3) {
		t.Fatalf("post-swap search wrong: %d %s", s3, a3)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	f := newFixture(t)
	status, body := f.rawPost(t, "/v1/indexes/junk/restore", []byte("not a container"))
	if status != http.StatusBadRequest && status != http.StatusUnprocessableEntity {
		t.Fatalf("garbage restore answered %d: %s", status, body)
	}
	// The failed load must not have registered the name.
	status, _ = f.do(t, http.MethodGet, "/v1/indexes/junk", nil)
	if status != http.StatusNotFound {
		t.Fatalf("junk index exists after failed restore: %d", status)
	}
	// And the serving set is untouched.
	status, _ = f.do(t, http.MethodPost, "/v1/indexes/trees/search",
		SearchRequest{Query: f.queries.Row(0), SearchOptionsJSON: SearchOptionsJSON{K: 3}})
	if status != http.StatusOK {
		t.Fatalf("trees broken after bad restore: %d", status)
	}
}

func TestContainerUnknownIndex(t *testing.T) {
	f := newFixture(t)
	resp, err := f.ts.Client().Get(f.ts.URL + "/v1/indexes/nope/container")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("container for unknown index answered %d: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "index_not_found") {
		t.Fatalf("unexpected error body: %s", raw)
	}
}

// TestContainerLengthIsTheStreamedFile: a logged index streams its container
// from its canonical path, which concurrent snapshots — other container GETs,
// and inserts growing the index between them — keep renaming new files of
// other sizes over. Every response's Content-Length is the length of the
// bytes it carries, and those bytes are a whole container.
func TestContainerLengthIsTheStreamedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dyn.p2h")
	ix, err := p2h.New(testMatrix(300, 8, 3), p2h.Spec{Kind: p2h.KindDynamic, LeafSize: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p2h.SaveFile(path, ix); err != nil {
		t.Fatal(err)
	}
	m := NewManager(p2h.ServerOptions{Workers: 2}, 0)
	defer m.Close(context.Background())
	if _, _, err := m.Load("d", IndexConfig{Path: path, WAL: true, WALSync: "none"}, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()
	e, release, err := m.acquire("d")
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		tick := time.NewTicker(50 * time.Microsecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if _, err := e.srv.Insert([]float32{float32(i), 1, 2, 3, 4, 5, 6, 7}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	errs := make(chan error, 3)
	for range 3 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for range 100 {
				if err := getWholeContainer(ts); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// getWholeContainer GETs index d's container and checks that the response
// is as long as it says and loads.
func getWholeContainer(ts *httptest.Server) error {
	resp, err := ts.Client().Get(ts.URL + "/v1/indexes/d/container")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("reading the container: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("container answered %d: %s", resp.StatusCode, raw)
	}
	if cl, _ := strconv.Atoi(resp.Header.Get("Content-Length")); cl != len(raw) {
		return fmt.Errorf("Content-Length %d but read %d bytes", cl, len(raw))
	}
	if _, err := p2h.Load(bytes.NewReader(raw)); err != nil {
		return fmt.Errorf("the streamed container does not load: %v", err)
	}
	return nil
}

// TestRestoreSpoolFileLivesWithItsIndex: a restored index owns the spool file
// it serves from, and retiring the index removes it — whether a later
// restore replaces the index, it is unloaded or the manager closes — so the
// spool directory holds one file per restored index and no more.
func TestRestoreSpoolFileLivesWithItsIndex(t *testing.T) {
	ix, err := p2h.New(testMatrix(300, 8, 1), p2h.Spec{Kind: p2h.KindBCTree, LeafSize: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var container bytes.Buffer
	if err := p2h.Save(&container, ix); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		restores int
		retire   func(m *Manager) error
		left     int
	}{
		{"restore-restore", 2, func(*Manager) error { return nil }, 1},
		{"restore-unload", 1, func(m *Manager) error { _, err := m.Unload("copy"); return err }, 0},
		{"restore-close", 1, func(m *Manager) error { return m.Close(context.Background()) }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spool := t.TempDir()
			m := NewManager(p2h.ServerOptions{Workers: 2}, 0)
			defer m.Close(context.Background())
			m.SetSpoolDir(spool)
			ts := httptest.NewServer(NewHandler(m))
			defer ts.Close()
			f := &fixture{ts: ts}
			for i := 0; i < tc.restores; i++ {
				if status, body := f.rawPost(t, "/v1/indexes/copy/restore", container.Bytes()); status != http.StatusCreated && status != http.StatusOK {
					t.Fatalf("restore %d answered %d: %s", i, status, body)
				}
			}
			if err := tc.retire(m); err != nil {
				t.Fatal(err)
			}
			for m.Swapping() { // a replaced index retires in the background
				time.Sleep(time.Millisecond)
			}
			files, err := filepath.Glob(filepath.Join(spool, "*"))
			if err != nil {
				t.Fatal(err)
			}
			if len(files) != tc.left {
				t.Fatalf("%d files left in the spool directory, want %d: %v", len(files), tc.left, files)
			}
		})
	}
}
