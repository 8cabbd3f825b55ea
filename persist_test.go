package p2h

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "regenerate the golden index fixtures under testdata/golden")

// goldenRecipes builds each persistable kind the exact same way every run:
// fixed data, fixed seeds, and for the dynamic kind a fixed mutation tail so
// the fixture holds a snapshot, tombstones and a buffer at once.
func goldenRecipes(t *testing.T) map[string]Index {
	t.Helper()
	data := specTestData(150, 8, 11)
	recipes := map[string]Index{}
	var err error
	if recipes[KindBallTree], err = New(data, Spec{Kind: KindBallTree, LeafSize: 24, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if recipes[KindBCTree], err = New(data, Spec{Kind: KindBCTree, LeafSize: 24, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if recipes[KindKDTree], err = New(data, Spec{Kind: KindKDTree, LeafSize: 24}); err != nil {
		t.Fatal(err)
	}
	if recipes[KindSharded], err = New(data, Spec{Kind: KindSharded, Shards: 3, Workers: 2, LeafSize: 24, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	dyn, err := New(data, Spec{Kind: KindDynamic, LeafSize: 24, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d := dyn.(*Dynamic)
	for _, h := range []int32{2, 77, 141} {
		if !d.Delete(h) {
			t.Fatalf("golden dynamic: Delete(%d) = false", h)
		}
	}
	extra := specTestData(5, 8, 12)
	for i := 0; i < extra.N; i++ {
		d.Insert(extra.Row(i))
	}
	recipes[KindDynamic] = d
	return recipes
}

func goldenPath(kind string) string {
	return filepath.Join("testdata", "golden", kind+".p2h")
}

// TestGoldenFixtures pins the container format: committed fixture files for
// every persistable kind keep loading (and answering queries identically to
// a fresh build) as the code evolves. Regenerate with `go test -run
// TestGoldenFixtures -update .` after an intentional format change.
func TestGoldenFixtures(t *testing.T) {
	recipes := goldenRecipes(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
		for kind, ix := range recipes {
			if err := SaveFile(goldenPath(kind), ix); err != nil {
				t.Fatalf("update %s: %v", kind, err)
			}
		}
	}

	queries := GenerateQueries(specTestData(150, 8, 11), 8, 21)
	for kind, fresh := range recipes {
		loaded, err := Open(goldenPath(kind))
		if err != nil {
			t.Fatalf("golden %s: %v", kind, err)
		}
		if got := KindOf(loaded); got != kind {
			t.Fatalf("golden %s: KindOf = %q", kind, got)
		}
		// Byte identity: a fresh build saves to exactly the committed file, so
		// neither the build nor the codec may drift without -update.
		golden, err := os.ReadFile(goldenPath(kind))
		if err != nil {
			t.Fatal(err)
		}
		var saved bytes.Buffer
		if err := Save(&saved, fresh); err != nil {
			t.Fatalf("golden %s: Save: %v", kind, err)
		}
		if !bytes.Equal(saved.Bytes(), golden) {
			t.Fatalf("golden %s: Save(fresh build) differs from the committed fixture", kind)
		}
		if loaded.N() != fresh.N() || loaded.Dim() != fresh.Dim() {
			t.Fatalf("golden %s: shape %d/%d, want %d/%d", kind, loaded.N(), loaded.Dim(), fresh.N(), fresh.Dim())
		}
		for qi := 0; qi < queries.N; qi++ {
			want, _ := fresh.Search(queries.Row(qi), SearchOptions{K: 6})
			got, _ := loaded.Search(queries.Row(qi), SearchOptions{K: 6})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("golden %s: query %d diverges from a fresh build", kind, qi)
			}
		}
	}
}

// TestSaveLoadRoundTripEveryPersistableKind: in-memory Save->Load for every
// persistable kind with byte-identical search results (exact, budgeted and
// filtered), and Save->Load->Save byte equality.
func TestSaveLoadRoundTripEveryPersistableKind(t *testing.T) {
	recipes := goldenRecipes(t)
	queries := GenerateQueries(specTestData(150, 8, 11), 6, 33)
	for kind, orig := range recipes {
		var buf bytes.Buffer
		if err := Save(&buf, orig); err != nil {
			t.Fatalf("%s: Save: %v", kind, err)
		}
		loaded, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: Load: %v", kind, err)
		}
		for qi := 0; qi < queries.N; qi++ {
			for _, opts := range []SearchOptions{
				{K: 5},
				{K: 3, Budget: 40},
				{K: 4, Filter: func(id int32) bool { return id%2 == 0 }},
			} {
				want, _ := orig.Search(queries.Row(qi), opts)
				got, _ := loaded.Search(queries.Row(qi), opts)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: query %d opts %+v diverges after round trip", kind, qi, opts)
				}
			}
		}
		var buf2 bytes.Buffer
		if err := Save(&buf2, loaded); err != nil {
			t.Fatalf("%s: re-Save: %v", kind, err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("%s: Save -> Load -> Save is not byte-identical", kind)
		}
	}
}

// TestSaveBuildOnlyKindsRefuse: NH, FH and the scans are registered
// build-only; Save must say so instead of writing an unloadable file.
func TestSaveBuildOnlyKindsRefuse(t *testing.T) {
	data := specTestData(80, 6, 5)
	for _, kind := range []string{KindNH, KindFH, KindLinearScan, KindQuantizedScan} {
		ix, err := New(data, Spec{Kind: kind})
		if err != nil {
			t.Fatalf("New(%s): %v", kind, err)
		}
		var buf bytes.Buffer
		if err := Save(&buf, ix); err == nil {
			t.Fatalf("%s: Save succeeded on a build-only kind", kind)
		}
	}
}

// TestBareTreeStreamRejected: the container is the only persisted format. A
// tree payload without its envelope is refused by Load and Inspect as an
// unrecognized magic, not sniffed.
func TestBareTreeStreamRejected(t *testing.T) {
	data := specTestData(120, 7, 9)
	for _, ix := range []Index{
		NewBallTree(data, BallTreeOptions{LeafSize: 20, Seed: 1}),
		NewBCTree(data, BCTreeOptions{LeafSize: 20, Seed: 1, Quantize: true}),
	} {
		var bare bytes.Buffer
		if err := kindOwning(ix).Save(&bare, ix); err != nil {
			t.Fatal(err)
		}
		_, err := Load(bytes.NewReader(bare.Bytes()))
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "unrecognized magic") {
			t.Fatalf("%s: Load of bare payload: %v, want ErrFormat: unrecognized magic", KindOf(ix), err)
		}
		if _, err := Inspect(bytes.NewReader(bare.Bytes())); !errors.Is(err, ErrFormat) {
			t.Fatalf("%s: Inspect of bare payload: %v, want ErrFormat", KindOf(ix), err)
		}
	}
}

// buildContainer assembles a container by hand for corruption tests.
func buildContainer(kind, specJSON string, payload []byte) []byte {
	var buf bytes.Buffer
	buf.Write(containerMagic)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(kind)))
	buf.Write(n[:])
	buf.WriteString(kind)
	binary.LittleEndian.PutUint32(n[:], uint32(len(specJSON)))
	buf.Write(n[:])
	buf.WriteString(specJSON)
	buf.Write(payload)
	return buf.Bytes()
}

func TestLoadRejectsMalformedContainers(t *testing.T) {
	// A good container to truncate.
	ix, err := New(specTestData(100, 5, 2), Spec{Kind: KindBCTree, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, ix); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	for _, cut := range []int{0, 3, 8, 10, 14, 20, len(good) / 2, len(good) - 1} {
		if _, err := Load(bytes.NewReader(good[:cut])); !errors.Is(err, ErrFormat) {
			t.Fatalf("truncated at %d: err = %v, want ErrFormat", cut, err)
		}
	}

	cases := []struct {
		name    string
		data    []byte
		wantErr error
	}{
		{"empty", nil, ErrFormat},
		{"bad magic", []byte("WHATEVER-THIS-IS"), ErrFormat},
		{"unknown kind", buildContainer("frobtree", `{"kind":"frobtree"}`, nil), ErrUnknownKind},
		{"build-only kind tag", buildContainer("nh", `{"kind":"nh"}`, nil), ErrFormat},
		{"bad spec json", buildContainer(KindBCTree, `{not json`, nil), ErrFormat},
		{"empty payload", buildContainer(KindBCTree, `{"kind":"bctree"}`, nil), ErrFormat},
		{"garbage payload", buildContainer(KindBCTree, `{"kind":"bctree"}`, []byte("garbage-bytes-here")), ErrFormat},
		{"oversized kind len", func() []byte {
			b := buildContainer(KindBCTree, `{}`, nil)
			binary.LittleEndian.PutUint32(b[8:12], 1<<30)
			return b
		}(), ErrFormat},
	}
	for _, c := range cases {
		if _, err := Load(bytes.NewReader(c.data)); !errors.Is(err, c.wantErr) {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.wantErr)
		}
	}

	// Open wraps the path into the error.
	dir := t.TempDir()
	path := filepath.Join(dir, "corrupt.p2h")
	if err := os.WriteFile(path, []byte("not an index at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrFormat) {
		t.Fatalf("Open corrupt: err = %v, want ErrFormat", err)
	}
	if _, err := Open(filepath.Join(dir, "missing.p2h")); err == nil {
		t.Fatal("Open of a missing file succeeded")
	}
}

// TestSaveFileCleansUpOnError: a failed Save must not leave a half-written
// container behind.
func TestSaveFileCleansUpOnError(t *testing.T) {
	data := specTestData(50, 4, 1)
	nh, err := New(data, Spec{Kind: KindNH})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "nope.p2h")
	if err := SaveFile(path, nh); err == nil {
		t.Fatal("SaveFile succeeded on a build-only kind")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("SaveFile left %s behind (stat err: %v)", path, err)
	}
}

// TestContainerSpecRecorded: the envelope carries the Spec, so a saved index
// describes its own tuning (kind, leaf size, shard layout).
func TestContainerSpecRecorded(t *testing.T) {
	ix, err := New(specTestData(120, 6, 3), Spec{Kind: KindSharded, Shards: 3, Workers: 2, LeafSize: 30, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, ix); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if !bytes.Contains(b, []byte(`"kind":"sharded"`)) ||
		!bytes.Contains(b, []byte(`"leaf_size":30`)) ||
		!bytes.Contains(b, []byte(`"shards":3`)) {
		t.Fatalf("container header does not record the spec: %q", b[:120])
	}
}

// TestInspectEveryPersistableKind: Inspect reports kind, Spec, raw dim and
// point count from the header region alone, for every kind Save can write.
func TestInspectEveryPersistableKind(t *testing.T) {
	for kind, ix := range goldenRecipes(t) {
		var buf bytes.Buffer
		if err := Save(&buf, ix); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		info, err := Inspect(&buf)
		if err != nil {
			t.Fatalf("%s: Inspect: %v", kind, err)
		}
		if info.Kind != kind {
			t.Fatalf("%s: Inspect kind=%q", kind, info.Kind)
		}
		if info.Spec.Kind != kind {
			t.Fatalf("%s: Inspect spec kind %q", kind, info.Spec.Kind)
		}
		if info.Dim != ix.Dim() || info.N != ix.N() {
			t.Fatalf("%s: Inspect dim=%d n=%d, want dim=%d n=%d", kind, info.Dim, info.N, ix.Dim(), ix.N())
		}
	}
}

// TestInspectReadsOnlyThePrefix: the whole point of Inspect — on a large
// container only the header region is consumed, not the payload body. (The
// dynamic kind is the documented exception: it skips the vectors but reads
// its liveness bitmap at the end of the stream.)
func TestInspectReadsOnlyThePrefix(t *testing.T) {
	ix, err := New(specTestData(5000, 16, 21), Spec{Kind: KindBallTree, LeafSize: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, ix); err != nil {
		t.Fatal(err)
	}
	total := buf.Len()
	info, err := Inspect(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if info.N != 5000 || info.Dim != 16 {
		t.Fatalf("inspect: %+v", info)
	}
	if consumed := total - buf.Len(); consumed > 64<<10 || consumed >= total/2 {
		t.Fatalf("Inspect consumed %d of %d bytes", consumed, total)
	}
}

// TestInspectUnknownPayload: a container naming an out-of-tree kind still
// reports its header; the unknown shape comes back as -1.
func TestInspectUnknownPayload(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(containerMagic)
	block := func(b []byte) {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(b)))
		buf.Write(n[:])
		buf.Write(b)
	}
	block([]byte("mycustom"))
	block([]byte(`{"kind":"mycustom","leaf_size":7}`))
	buf.Write([]byte("XYZPAY01rest-of-the-payload"))
	info, err := Inspect(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != "mycustom" || info.Spec.LeafSize != 7 || info.Dim != -1 || info.N != -1 {
		t.Fatalf("unknown-payload inspect: %+v", info)
	}
}

// TestInspectRejectsMalformed: garbage and truncation fail with ErrFormat
// rather than a misread shape.
func TestInspectRejectsMalformed(t *testing.T) {
	ix, err := New(specTestData(60, 4, 5), Spec{Kind: KindBCTree, LeafSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, ix); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for name, b := range map[string][]byte{
		"garbage":         []byte("not an index container at all"),
		"empty":           {},
		"cut mid-header":  good[:10],
		"cut mid-payload": good[:len(good)-(len(good)-30)], // 30 bytes: inside the kind/spec blocks
	} {
		if _, err := Inspect(bytes.NewReader(b)); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: Inspect err = %v, want ErrFormat", name, err)
		}
	}
}

// TestInspectFileMatchesOpen: the file-level wrapper agrees with what a full
// Open observes.
func TestInspectFileMatchesOpen(t *testing.T) {
	data := specTestData(90, 6, 7)
	ix, err := New(data, Spec{Kind: KindDynamic, LeafSize: 25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d := ix.(*Dynamic)
	d.Delete(4)
	d.Delete(40)
	path := filepath.Join(t.TempDir(), "dyn.p2h")
	if err := SaveFile(path, d); err != nil {
		t.Fatal(err)
	}
	info, err := InspectFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != KindOf(loaded) || info.Dim != loaded.Dim() || info.N != loaded.N() {
		t.Fatalf("InspectFile %+v disagrees with Open (kind=%s dim=%d n=%d)",
			info, KindOf(loaded), loaded.Dim(), loaded.N())
	}
	if info.Spec.LeafSize != 25 {
		t.Fatalf("InspectFile spec: %+v", info.Spec)
	}
}

// TestInspectTinyUnknownPayload: an out-of-tree kind whose payload is
// shorter than any built-in magic still inspects to its header, shape
// unknown.
func TestInspectTinyUnknownPayload(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(containerMagic)
	block := func(b []byte) {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(b)))
		buf.Write(n[:])
		buf.Write(b)
	}
	block([]byte("tinykind"))
	block([]byte(`{"kind":"tinykind"}`))
	buf.Write([]byte("abc")) // 3-byte payload: shorter than any magic
	info, err := Inspect(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != "tinykind" || info.Dim != -1 || info.N != -1 {
		t.Fatalf("tiny-payload inspect: %+v", info)
	}
}
