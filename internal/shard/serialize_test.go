package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"p2h/internal/binio"
	"p2h/internal/core"
	"p2h/internal/vec"
)

func serialTestMatrix(n, d int, seed int64) *vec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := vec.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

func TestSaveLoadRoundTrip(t *testing.T) {
	data := serialTestMatrix(400, 7, 1)
	orig := Build(data, Config{Shards: 5, LeafSize: 20, Seed: 3, Workers: 2})

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.N() != orig.N() || loaded.Dim() != orig.Dim() ||
		loaded.Shards() != orig.Shards() || loaded.Workers() != orig.Workers() ||
		loaded.LeafSize() != orig.LeafSize() {
		t.Fatalf("shape mismatch: %v vs %v", loaded, orig)
	}

	rng := rand.New(rand.NewSource(99))
	for qi := 0; qi < 20; qi++ {
		q := make([]float32, 7)
		for i := range q {
			q[i] = float32(rng.NormFloat64())
		}
		for _, opts := range []core.SearchOptions{
			{K: 5},
			{K: 3, Budget: 60},
		} {
			wantRes, _ := orig.Search(q, opts)
			gotRes, _ := loaded.Search(q, opts)
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("query %d opts %+v: results diverge:\n got %v\nwant %v", qi, opts, gotRes, wantRes)
			}
		}
	}

	// Determinism: a second Save of the loaded index is byte-identical.
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatalf("re-Save: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("Save -> Load -> Save is not byte-identical")
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	data := serialTestMatrix(150, 4, 2)
	orig := Build(data, Config{Shards: 3, LeafSize: 16, Seed: 1, Workers: 1})
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	good := buf.Bytes()

	for _, cut := range []int{0, 4, len(magic), 20, len(good) / 3, len(good) - 1} {
		if _, err := Load(bytes.NewReader(good[:cut])); !errors.Is(err, binio.ErrCorrupt) {
			t.Fatalf("truncated at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}

	bad := append([]byte("NOTSHARD"), good[len(magic):]...)
	if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, binio.ErrCorrupt) {
		t.Fatalf("bad magic: err = %v, want ErrCorrupt", err)
	}

	// An absurd declared size must fail the bound check, not reach a
	// giant allocation (n is the first header field).
	bad = append([]byte(nil), good...)
	for i := 0; i < 4; i++ {
		bad[len(magic)+i] = 0x7f
	}
	if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, binio.ErrCorrupt) {
		t.Fatalf("absurd n: err = %v, want ErrCorrupt", err)
	}

	// The first shard tree's ids start after the header, the record's length
	// prefix and the tree payload's own magic and five counters; the second
	// record follows the first payload.
	const treeIDs = 8 + 5*4
	first := len(magic) + 4*4
	firstIDs := first + 8 + treeIDs
	secondIDs := firstIDs - treeIDs + int(binary.LittleEndian.Uint64(good[first:])) + 8 + treeIDs

	// An id the holder's id space does not have.
	bad = append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[firstIDs:], uint32(data.N))
	if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, binio.ErrCorrupt) {
		t.Fatalf("id past the global n: err = %v, want ErrCorrupt", err)
	}

	// An id two shards both claim.
	bad = append([]byte(nil), good...)
	copy(bad[firstIDs:firstIDs+4], bad[secondIDs:secondIDs+4])
	if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, binio.ErrCorrupt) {
		t.Fatalf("id in two shards: err = %v, want ErrCorrupt", err)
	}
}

// TestLoadNamesRetiredVersions checks that a payload written before the shard
// trees spoke global ids is refused by name, not as noise.
func TestLoadNamesRetiredVersions(t *testing.T) {
	var buf bytes.Buffer
	if err := Build(serialTestMatrix(60, 3, 4), Config{Shards: 2, Seed: 1}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	old := append([]byte("P2HSH001"), buf.Bytes()[len(magic):]...)
	_, err := Load(bytes.NewReader(old))
	if !errors.Is(err, binio.ErrCorrupt) {
		t.Fatalf("retired payload: err = %v, want ErrCorrupt", err)
	}
	for _, want := range []string{"P2HSH001", "version 1", magic} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	if RetiredPayload(magic) != nil || RetiredPayload("P2HDY002") != nil {
		t.Fatal("RetiredPayload names a magic no earlier release of this format wrote")
	}
}
