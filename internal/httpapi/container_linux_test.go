package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"p2h"
)

// mappingsUnder counts the entries of /proc/self/maps that map a file under
// dir, an unlinked one included.
func mappingsUnder(t *testing.T, dir string) int {
	t.Helper()
	b, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(b), dir+string(filepath.Separator))
}

// TestContainerSpoolIsNeverMapped: streaming the container of an index without
// a log — one opened from a file, one built from a spec, a dynamic one —
// spools a copy that no index adopts, so no spool file stays mapped after the
// GET. A snapshot of the spec-built index, which it does adopt, is mapped.
func TestContainerSpoolIsNeverMapped(t *testing.T) {
	dir, spool, snaps := t.TempDir(), t.TempDir(), t.TempDir()
	data := testMatrix(2000, 8, 1)
	dataPath := filepath.Join(dir, "data.fvecs")
	if err := p2h.SaveFvecs(dataPath, data); err != nil {
		t.Fatal(err)
	}
	ix, err := p2h.New(data, p2h.Spec{Kind: p2h.KindBCTree, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	containerPath := filepath.Join(dir, "trees.p2h")
	if err := p2h.SaveFile(containerPath, ix); err != nil {
		t.Fatal(err)
	}
	m := NewManager(p2h.ServerOptions{Workers: 2}, 0)
	defer m.Close(context.Background())
	m.SetSpoolDir(spool)
	for name, cfg := range map[string]IndexConfig{
		"opened": {Path: containerPath},
		"built":  {Spec: &p2h.Spec{Kind: p2h.KindBCTree, Seed: 3}, Data: dataPath},
		"dyn":    {Spec: &p2h.Spec{Kind: p2h.KindDynamic, Seed: 3}, Data: dataPath},
	} {
		if _, _, err := m.Load(name, cfg, false); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	for _, name := range []string{"opened", "built", "dyn"} {
		resp, err := ts.Client().Get(ts.URL + "/v1/indexes/" + name + "/container")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: container answered %d (%v)", name, resp.StatusCode, err)
		}
		if _, err := p2h.Load(bytes.NewReader(raw)); err != nil {
			t.Fatalf("%s: the streamed container does not load: %v", name, err)
		}
		if n := mappingsUnder(t, spool); n > 0 {
			t.Fatalf("%s: %d spool mappings left after the GET", name, n)
		}
	}

	body, _ := json.Marshal(SnapshotRequest{Path: filepath.Join(snaps, "built.p2h")})
	resp, err := ts.Client().Post(ts.URL+"/v1/indexes/built/snapshot", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot answered %d", resp.StatusCode)
	}
	if mappingsUnder(t, snaps) == 0 {
		t.Fatal("the spec-built index does not serve from the snapshot it wrote")
	}
}
