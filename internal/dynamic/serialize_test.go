package dynamic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"p2h/internal/attr"
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
	for i := 0; i < data.N; i++ {
		data.Row(i)[5] = 1 // lifted coordinate
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
		row[5] = 1
		mustInsert(ix, row)
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
		loaded.delta.N != orig.delta.N || loaded.treeDel != orig.treeDel ||
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
	row[5] = 1
	if h1, h2 := mustInsert(orig, row), mustInsert(loaded, row); h1 != h2 {
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
	if h := mustInsert(loaded, []float32{1, 2, 3, 4}); h != 0 {
		t.Fatalf("first handle after empty round-trip = %d", h)
	}

	// Buffer-only index (too small for a first tree).
	small := New(3, Config{})
	for i := 0; i < 5; i++ {
		mustInsert(small, []float32{float32(i), 2, 1})
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
	// seed(8) + compactFraction(8) + dim(4), the live count after it, and
	// the liveness words after that.
	bad = append([]byte(nil), good...)
	handlesOff := len(magic) + 4 + 8 + 8 + 4
	for i := 0; i < 4; i++ {
		bad[handlesOff+i] = 0x7f
	}
	if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, binio.ErrCorrupt) {
		t.Fatalf("absurd handle count: err = %v, want ErrCorrupt", err)
	}

	// A liveness bit at or past the handle count: the fixture's 310 handles
	// leave 58 unused bits in the last word; set the first of them, with the
	// live count raised to match so only the range check can refuse it.
	handles := orig.Handles()
	if handles%64 == 0 {
		t.Fatalf("%d handles fill their last liveness word; the case needs spare bits", handles)
	}
	wordsOff := handlesOff + 8
	bad = append([]byte(nil), good...)
	last := wordsOff + 8*(core.BitmapWords(handles)-1)
	binary.LittleEndian.PutUint64(bad[last:], binary.LittleEndian.Uint64(bad[last:])|1<<(handles%64))
	binary.LittleEndian.PutUint32(bad[handlesOff+4:], uint32(orig.N()+1))
	if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, binio.ErrCorrupt) || !strings.Contains(err.Error(), "past") {
		t.Fatalf("bit past the handle count: err = %v, want ErrCorrupt naming it", err)
	}

	// A live count the bits disagree with.
	bad = append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[handlesOff+4:], uint32(orig.N()-1))
	if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, binio.ErrCorrupt) || !strings.Contains(err.Error(), "live count") {
		t.Fatalf("live count off by one: err = %v, want ErrCorrupt naming it", err)
	}

	// A live handle's bit cleared with the count kept: the counts disagree
	// too, so the bits and the count are one consistent claim or refused.
	bad = append([]byte(nil), good...)
	bad[wordsOff] ^= 1 // handle 0 is live in the fixture
	if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, binio.ErrCorrupt) {
		t.Fatalf("flipped liveness bit: err = %v, want ErrCorrupt", err)
	}
}

// TestSnapshotTreeIsAligned: whatever the handle count, the embedded tree
// payload starts on a 4-byte boundary of the dynamic payload, behind zero
// padding that Load insists on. (Dedup may drop a generated row, so the
// counts are the matrices', whatever they come to.)
// TestLoadedRowsOffTheLift: every row a compaction builds a tree over must
// end in the lift's 1 (balltree.BuildOwned panics otherwise, and a compaction
// may run on a server's background goroutine). Load refuses a delta row off
// it. A snapshot point off it loads, because a tree's points are trusted
// geometry, and the compaction that rebuilds over it writes the 1 back: the
// compacted index answers as the unpatched one does.
func TestLoadedRowsOffTheLift(t *testing.T) {
	orig := buildMutated(t)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	good := buf.Bytes()
	// offLift patches the last coordinate of row, found by its bytes (the
	// fixture's rows are random, so each is stored once), to 2.
	offLift := func(row []float32) []byte {
		want := make([]byte, 4*len(row))
		for j, v := range row {
			binary.LittleEndian.PutUint32(want[4*j:], math.Float32bits(v))
		}
		off := bytes.Index(good, want)
		if off < 0 || bytes.Contains(good[off+1:], want) {
			t.Fatalf("row %v is not stored exactly once", row)
		}
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(bad[off+len(want)-4:], math.Float32bits(2))
		return bad
	}

	if _, err := Load(bytes.NewReader(offLift(orig.delta.Row(orig.delta.N - 1)))); !errors.Is(err, binio.ErrCorrupt) {
		t.Fatalf("delta row off the lift: err = %v, want ErrCorrupt", err)
	}

	points, handles := orig.tree.Rows()
	p := slices.IndexFunc(handles, func(h int32) bool { return orig.live.Has(h) })
	loaded, err := Load(bytes.NewReader(offLift(points.Row(p))))
	if err != nil {
		t.Fatalf("snapshot point off the lift: %v", err)
	}
	if !loaded.Compact() || !orig.Compact() {
		t.Fatal("fixture has nothing to compact")
	}
	rows, _ := loaded.tree.Rows()
	for i := 0; i < rows.N; i++ {
		if v := rows.Row(i)[rows.D-1]; v != 1 {
			t.Fatalf("compacted row %d ends in %v", i, v)
		}
	}
	q := []float32{0.3, -1, 0.5, 0.2, 0.7, -0.1}
	want, _ := orig.Search(q, core.SearchOptions{K: 10})
	got, _ := loaded.Search(q, core.SearchOptions{K: 10})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compacted results diverge:\n got %v\nwant %v", got, want)
	}
}

func TestSnapshotTreeIsAligned(t *testing.T) {
	for seed := int64(40); seed < 44; seed++ {
		data, _ := liftedData(int(seed)+30*int(seed-40), 5, seed)
		n := data.N // the handle count
		var buf bytes.Buffer
		if err := NewFromMatrix(data, Config{LeafSize: 8, Seed: 1}).Save(&buf); err != nil {
			t.Fatal(err)
		}
		good := buf.Bytes()
		pad := treePad(n)
		tree := headBytes + 8*core.BitmapWords(n) + pad + 1 + 8
		if tree%4 != 0 || string(good[tree:tree+len("P2HBC")]) != "P2HBC" {
			t.Fatalf("%d handles: tree payload at offset %d (%d padding bytes)", n, tree, pad)
		}
		if pad == 0 {
			continue
		}
		bad := append([]byte(nil), good...)
		bad[headBytes+8*core.BitmapWords(n)] = 1
		if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, binio.ErrCorrupt) {
			t.Fatalf("%d handles: non-zero padding: err = %v, want ErrCorrupt", n, err)
		}
	}
}

// TestLoadNamesRetiredVersions: the payloads earlier releases wrote (every
// vector ever inserted, in handle order, beside the tree's copy; then a
// tree-local id -> handle map beside the tree; then the tree unpadded; then a
// liveness byte per handle) are refused by name, not mistaken for garbage and
// not converted.
func TestLoadNamesRetiredVersions(t *testing.T) {
	var buf bytes.Buffer
	if err := buildMutated(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	for old, version := range map[string]string{"P2HDY001": "version 1", "P2HDY002": "version 2", "P2HDY003": "version 3", "P2HDY004": "version 4"} {
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
// keeps — the liveness bitmap, one 8-byte word per 64 handles — and the
// vectors it keeps are the tree's copy and the delta rows, nothing else. The
// field list is checked against the struct, so a new slice has to be either
// counted or named here; the attribute store is counted once.
func TestIndexBytesMatchesStorage(t *testing.T) {
	ix := buildMutated(t)
	if len(ix.live) != (ix.Handles()+63)/64 {
		t.Errorf("%d liveness words for %d handles", len(ix.live), ix.Handles())
	}
	want := ix.tree.IndexBytes() + int64(len(ix.live))*int64(unsafe.Sizeof(ix.live[0]))
	if got := ix.IndexBytes(); got != want {
		t.Errorf("IndexBytes() = %d, the tree and the per-handle slices hold %d", got, want)
	}
	if ix.tree.N()+ix.delta.N != ix.Handles() {
		t.Errorf("%d vectors in the tree and %d in the delta for %d handles issued, none deleted before the bulk load",
			ix.tree.N(), ix.delta.N, ix.Handles())
	}
	holders := map[string]bool{"live": true, "tree": true, "delta": true, "attrs": true}
	typ := reflect.TypeOf(*ix)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if k := f.Type.Kind(); (k == reflect.Slice || k == reflect.Pointer || k == reflect.Map) && !holders[f.Name] {
			t.Errorf("field %s can hold per-handle storage this test does not account for", f.Name)
		}
	}

	// attrs, the attribute store, is counted once: on its own while the
	// snapshot tree holds none, through the tree (store plus the tree's
	// summaries) once Install attached it. The index above never saw a
	// payload and holds none, so its count is its twin's.
	plain := buildMutated(t)
	if ix.IndexBytes() != plain.IndexBytes() || ix.Attrs() != nil {
		t.Fatalf("an index without payloads counts %d bytes, its twin %d", ix.IndexBytes(), plain.IndexBytes())
	}
	row := func(i int) []float32 { return []float32{float32(i), 1, 0, 0, 0, 1} }
	if _, err := ix.Insert(row(0), attr.Point{Tags: []string{"a"}, Ints: map[string]int64{"n": 1}}); err != nil {
		t.Fatal(err)
	}
	mustInsert(plain, row(0))
	st := ix.Attrs()
	if st == nil || ix.tree.Attrs() != nil {
		t.Fatal("the first attributed insert should create the store and leave the tree without one")
	}
	if got, want := ix.IndexBytes(), plain.IndexBytes()+st.MemBytes(); got != want {
		t.Errorf("before the fold: IndexBytes() = %d, want %d (the twin's plus the store)", got, want)
	}
	ix.Compact()
	if ix.tree.Attrs() != st {
		t.Fatal("Install did not attach the store to the new tree")
	}
	if got, want := ix.IndexBytes(), ix.tree.IndexBytes()+int64(len(ix.live))*8; got != want {
		t.Errorf("after the fold: IndexBytes() = %d, want the tree's (store and summaries in it) plus liveness, %d", got, want)
	}
}
