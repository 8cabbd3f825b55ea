package dynamic

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"p2h/internal/binio"
	"p2h/internal/core"
	"p2h/internal/vec"
)

// buildMutated constructs a dynamic index holding every interesting state at
// once: a tree snapshot, tombstones inside it, and a pending insert buffer.
func buildMutated(t *testing.T) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	data := vec.NewMatrix(300, 6)
	for i := range data.Data {
		data.Data[i] = float32(rng.NormFloat64())
	}
	ix := NewFromMatrix(data, Config{LeafSize: 25, Seed: 3})
	// Tombstones inside the snapshot (too few to trigger a rebuild).
	for _, h := range []int32{5, 17, 123} {
		if !ix.Delete(h) {
			t.Fatalf("Delete(%d) = false", h)
		}
	}
	// Buffered inserts on top of the snapshot.
	for i := 0; i < 10; i++ {
		row := make([]float32, 6)
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
		ix.Insert(row)
	}
	if ix.tree == nil || ix.treeDel == 0 || ix.delta.N == 0 {
		t.Fatalf("fixture not in snapshot+delta state: tree=%v del=%d delta=%d",
			ix.tree != nil, ix.treeDel, ix.delta.N)
	}
	return ix
}

func randQuery(rng *rand.Rand, d int) []float32 {
	q := make([]float32, d)
	for i := range q {
		q[i] = float32(rng.NormFloat64())
	}
	return q
}

func TestSaveLoadRoundTrip(t *testing.T) {
	orig := buildMutated(t)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.N() != orig.N() || loaded.Dim() != orig.Dim() ||
		loaded.BufferLen() != orig.BufferLen() || loaded.treeDel != orig.treeDel ||
		loaded.Configuration() != orig.Configuration() {
		t.Fatalf("state mismatch: %v vs %v", loaded, orig)
	}

	rng := rand.New(rand.NewSource(42))
	for qi := 0; qi < 20; qi++ {
		q := randQuery(rng, 6)
		for _, opts := range []core.SearchOptions{
			{K: 5},
			{K: 4, Budget: 50},
		} {
			wantRes, _ := orig.Search(q, opts)
			gotRes, _ := loaded.Search(q, opts)
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("query %d opts %+v: results diverge:\n got %v\nwant %v", qi, opts, gotRes, wantRes)
			}
		}
	}

	// The restored index keeps mutating where the saved one left off:
	// parallel mutations stay equivalent.
	row := randQuery(rng, 6)
	if h1, h2 := orig.Insert(row), loaded.Insert(row); h1 != h2 {
		t.Fatalf("post-load Insert handles diverge: %d vs %d", h1, h2)
	}
	if d1, d2 := orig.Delete(30), loaded.Delete(30); d1 != d2 {
		t.Fatalf("post-load Delete diverges: %v vs %v", d1, d2)
	}
	q := randQuery(rng, 6)
	wantRes, _ := orig.Search(q, core.SearchOptions{K: 5})
	gotRes, _ := loaded.Search(q, core.SearchOptions{K: 5})
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("post-mutation results diverge:\n got %v\nwant %v", gotRes, wantRes)
	}

	// Determinism: a second Save of the loaded index is byte-identical to a
	// second Save of the original.
	var bufA, bufB bytes.Buffer
	if err := orig.Save(&bufA); err != nil {
		t.Fatalf("re-Save orig: %v", err)
	}
	if err := loaded.Save(&bufB); err != nil {
		t.Fatalf("re-Save loaded: %v", err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("Save after identical mutations is not byte-identical")
	}
}

func TestSaveLoadEmptyAndBufferOnly(t *testing.T) {
	// Empty index (never inserted).
	empty := New(4, Config{})
	var buf bytes.Buffer
	if err := empty.Save(&buf); err != nil {
		t.Fatalf("Save empty: %v", err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load empty: %v", err)
	}
	if loaded.N() != 0 || loaded.Dim() != 4 || loaded.tree != nil {
		t.Fatalf("empty round-trip: %v", loaded)
	}
	if h := loaded.Insert([]float32{1, 2, 3, 4}); h != 0 {
		t.Fatalf("first handle after empty round-trip = %d", h)
	}

	// Buffer-only index (too small for a first tree).
	small := New(3, Config{})
	for i := 0; i < 5; i++ {
		small.Insert([]float32{float32(i), 1, 2})
	}
	buf.Reset()
	if err := small.Save(&buf); err != nil {
		t.Fatalf("Save buffer-only: %v", err)
	}
	loaded, err = Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load buffer-only: %v", err)
	}
	wantRes, _ := small.Search([]float32{1, 0, 0}, core.SearchOptions{K: 3})
	gotRes, _ := loaded.Search([]float32{1, 0, 0}, core.SearchOptions{K: 3})
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("buffer-only results diverge:\n got %v\nwant %v", gotRes, wantRes)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	orig := buildMutated(t)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	good := buf.Bytes()

	for _, cut := range []int{0, 4, len(magic), 25, len(good) / 2, len(good) - 1} {
		if _, err := Load(bytes.NewReader(good[:cut])); !errors.Is(err, binio.ErrCorrupt) {
			t.Fatalf("truncated at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}

	bad := append([]byte("NOTDYNMC"), good[len(magic):]...)
	if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, binio.ErrCorrupt) {
		t.Fatalf("bad magic: err = %v, want ErrCorrupt", err)
	}

	// An absurd declared size must fail the bound check, not reach a
	// giant allocation. The handle count sits after magic + leafSize(4) +
	// seed(8) + rebuild(8) + dim(4).
	bad = append([]byte(nil), good...)
	handlesOff := len(magic) + 4 + 8 + 8 + 4
	for i := 0; i < 4; i++ {
		bad[handlesOff+i] = 0x7f
	}
	if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, binio.ErrCorrupt) {
		t.Fatalf("absurd handle count: err = %v, want ErrCorrupt", err)
	}

	// A liveness byte outside 0/1; the bytes follow the handle count.
	bad = append([]byte(nil), good...)
	bad[handlesOff+4] = 7
	if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, binio.ErrCorrupt) {
		t.Fatalf("bad liveness byte: err = %v, want ErrCorrupt", err)
	}
}

// TestLoadNamesRetiredVersions: the payloads earlier releases wrote (every
// vector ever inserted, in handle order, beside the tree's copy; then a
// tree-local id -> handle map beside the tree) are refused by name, not
// mistaken for garbage and not converted.
func TestLoadNamesRetiredVersions(t *testing.T) {
	var buf bytes.Buffer
	if err := buildMutated(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	for old, version := range map[string]string{"P2HDY001": "version 1", "P2HDY002": "version 2"} {
		_, err := Load(bytes.NewReader(append([]byte(old), buf.Bytes()[len(magic):]...)))
		if !errors.Is(err, binio.ErrCorrupt) {
			t.Fatalf("%s: want ErrCorrupt, got %v", old, err)
		}
		for _, want := range []string{old, version, magic} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		}
	}
	if RetiredPayload(magic) != nil || RetiredPayload("P2HBC004") != nil {
		t.Fatal("RetiredPayload names a magic no earlier release of this format wrote")
	}
}

// TestIndexBytesMatchesStorage ties dyn-rw's bytes_per_point to the layout,
// as the tree's test of the same name does for the arena: IndexBytes is the
// tree's figure plus len x element size of every per-handle slice the index
// keeps, and the vectors it keeps are the tree's copy and the delta rows,
// nothing else. The field list is checked against the struct, so a new slice
// has to be either counted or named here.
func TestIndexBytesMatchesStorage(t *testing.T) {
	ix := buildMutated(t)
	want := ix.tree.IndexBytes() + int64(len(ix.alive))*int64(unsafe.Sizeof(ix.alive[0]))
	if got := ix.IndexBytes(); got != want {
		t.Errorf("IndexBytes() = %d, the tree and the per-handle slices hold %d", got, want)
	}
	if ix.tree.N()+ix.delta.N != ix.Handles() {
		t.Errorf("%d vectors in the tree and %d in the delta for %d handles issued, none deleted before the bulk load",
			ix.tree.N(), ix.delta.N, ix.Handles())
	}
	holders := map[string]bool{"alive": true, "tree": true, "delta": true, "attrs": true}
	typ := reflect.TypeOf(*ix)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if k := f.Type.Kind(); (k == reflect.Slice || k == reflect.Pointer || k == reflect.Map) && !holders[f.Name] {
			t.Errorf("field %s can hold per-handle storage this test does not account for", f.Name)
		}
	}
}
