package p2h

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// walDigests are the SHA-256 digests of the .wal file after each phase of
// walDigestScript, recorded when plain and attributed inserts were still
// logged by two separate append functions.
var walDigests = map[string]string{
	"mixed":     "00448f03c962c116f46eaa9ea0c320844b17ce1b7458dc3827ffa8a43d7a4224",
	"truncated": "ad46667b05bf959a11faa9933176eb54bc7c9be1a6d87cf9172405fa1fb4d7a8",
	"more":      "06e61c99727d75251f6729337c5e2898f89c1ff4c6ac782cbeaeec793849cfb4",
}

// walDigestScript drives one fixed mix of mutations through srv: plain
// inserts, attributed inserts (tags, int and float fields, and a payload
// whose only attribute is one empty tag) and deletes of earlier handles.
func walDigestScript(t *testing.T, srv *Server, rng *rand.Rand, n int) {
	t.Helper()
	var handles []int32
	for i := 0; i < n; i++ {
		p := make([]float32, 5)
		for j := range p {
			p[j] = rng.Float32()*2 - 1
		}
		var h int32
		var err error
		switch i % 5 {
		case 0, 2:
			h, err = srv.Insert(p)
		case 1:
			h, err = srv.InsertWithAttrs(p, PointAttrs{
				Tags:   []string{fmt.Sprintf("t%d", i%7), "shared"},
				Ints:   map[string]int64{"year": int64(1990 + i), "rank": int64(-i)},
				Floats: map[string]float64{"price": float64(i) / 3},
			})
		case 3:
			h, err = srv.InsertWithAttrs(p, PointAttrs{Tags: []string{""}})
		case 4:
			if len(handles) > 0 {
				k := rng.Intn(len(handles))
				ok, derr := srv.Delete(handles[k])
				if derr != nil || !ok {
					t.Fatalf("delete %d: %v, %v", handles[k], ok, derr)
				}
				handles = append(handles[:k], handles[k+1:]...)
			}
			continue
		}
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		handles = append(handles, h)
	}
}

// TestWALDigest pins the write-ahead log's bytes: a fixed script of plain
// and attributed inserts and deletes through a Server under WALSyncAlways,
// one Snapshot truncation, then more of each, must leave the .wal file byte
// for byte as recorded after every phase.
func TestWALDigest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.p2h")
	ix := MustBuild(t, nil, Spec{Kind: KindDynamic, Dim: 5, Seed: 3})
	w, err := AttachWAL(ix, WALPath(path), WALSyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ix, ServerOptions{Workers: 1, WAL: w})
	defer func() {
		srv.Close()
		if err := w.Close(); err != nil {
			t.Error(err)
		}
	}()
	check := func(phase string) {
		t.Helper()
		b, err := os.ReadFile(WALPath(path))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != walDigests[phase] {
			t.Errorf("%s: wal digest %s (%d bytes), recorded %s", phase, got, len(b), walDigests[phase])
		}
	}
	rng := rand.New(rand.NewSource(17))
	walDigestScript(t, srv, rng, 60)
	check("mixed")
	if _, err := srv.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	check("truncated")
	walDigestScript(t, srv, rng, 45)
	check("more")
}
