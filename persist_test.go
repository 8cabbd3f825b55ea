package p2h

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"p2h/internal/attr"
	"p2h/internal/balltree"
	"p2h/internal/binio"
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
		var buf bytes.Buffer
		if err := Save(&buf, recipes[KindBCTree]); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath("bctree-unaligned"), unpadded(t, buf.Bytes()), 0o644); err != nil {
			t.Fatal(err)
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

	// A container as Save wrote them before it aligned the payload (its spec
	// is not padded): Open cannot alias its sections and decodes copies, which
	// must answer as a fresh build does.
	old := goldenPath("bctree-unaligned")
	raw, err := os.ReadFile(old)
	if err != nil {
		t.Fatal(err)
	}
	if off, _ := arenaPayload(t, raw); off%payloadAlign == 0 {
		t.Fatalf("%s: payload at offset %d is aligned; the fixture must not be", old, off)
	}
	var loaded Index
	if got, pointBytes := totalAllocDuring(func() { loaded, err = Open(old) }), 4*150*9; err != nil || got < uint64(pointBytes) {
		t.Fatalf("Open(%s): err %v, allocated %d bytes, want a copy of the %d-byte point section", old, err, got, pointBytes)
	}
	for qi := 0; qi < queries.N; qi++ {
		want, _ := recipes[KindBCTree].Search(queries.Row(qi), SearchOptions{K: 6})
		got, _ := loaded.Search(queries.Row(qi), SearchOptions{K: 6})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: query %d diverges from a fresh build", old, qi)
		}
	}
}

// codecVariants is the codec's whole matrix: every persistable kind, plain (the
// golden recipes) and with an attribute column (which switches the container
// to its v2 envelope).
func codecVariants(t *testing.T) map[string]Index {
	t.Helper()
	out := map[string]Index{}
	for kind, ix := range goldenRecipes(t) {
		out[kind+"/plain"] = ix
	}
	for kind, ix := range goldenRecipes(t) {
		rows := ix.N()
		if d, ok := ix.(*Dynamic); ok {
			rows = d.Handles()
		}
		pts := make([]PointAttrs, rows)
		for i := range pts {
			pts[i] = PointAttrs{Tags: []string{"even", "odd"}[i%2 : i%2+1], Ints: map[string]int64{"row": int64(i)}}
		}
		if err := AttachAttributes(ix, pts); err != nil {
			t.Fatalf("%s: AttachAttributes: %v", kind, err)
		}
		out[kind+"/attributed"] = ix
	}
	return out
}

// TestSaveLoadRoundTripEveryPersistableKind: in-memory Save->Load for every
// persistable kind x {plain, attributed} with byte-identical search
// results (exact, budgeted, filtered and by predicate), and Save->Load->Save
// byte equality.
func TestSaveLoadRoundTripEveryPersistableKind(t *testing.T) {
	queries := GenerateQueries(specTestData(150, 8, 11), 6, 33)
	for name, orig := range codecVariants(t) {
		var buf bytes.Buffer
		if err := Save(&buf, orig); err != nil {
			t.Fatalf("%s: Save: %v", name, err)
		}
		loaded, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: Load: %v", name, err)
		}
		for qi := 0; qi < queries.N; qi++ {
			for _, opts := range []SearchOptions{
				{K: 5},
				{K: 3, Budget: 40},
				{K: 4, Filter: func(id int32) bool { return id%2 == 0 }},
				{K: 4, Pred: TagIs("even")},
			} {
				want, _ := orig.Search(queries.Row(qi), opts)
				got, _ := loaded.Search(queries.Row(qi), opts)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: query %d opts %+v diverges after round trip", name, qi, opts)
				}
			}
		}
		var buf2 bytes.Buffer
		if err := Save(&buf2, loaded); err != nil {
			t.Fatalf("%s: re-Save: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("%s: Save -> Load -> Save is not byte-identical", name)
		}
	}
}

// arenaPayload locates the last arena payload inside a container (the only one
// in a tree's, the embedded snapshot in a Dynamic's): its offset and the magic
// Save wrote there, from the codec's own list.
func arenaPayload(t testing.TB, container []byte) (off int, magic string) {
	t.Helper()
	off = -1
	for _, m := range balltree.PayloadMagics() {
		if i := bytes.LastIndex(container, []byte(m)); i > off {
			off, magic = i, m
		}
	}
	if off < 0 {
		t.Fatal("container embeds no arena payload")
	}
	return off, magic
}

// unpadded returns container with the trailing spaces Save pads the spec with
// removed, as Save wrote containers before it aligned their payload.
func unpadded(t testing.TB, container []byte) []byte {
	t.Helper()
	at := len(containerMagic) + 4 + int(binary.LittleEndian.Uint32(container[len(containerMagic):]))
	n := int(binary.LittleEndian.Uint32(container[at:]))
	spec := bytes.TrimRight(container[at+4:at+4+n], " ")
	out := binary.LittleEndian.AppendUint32(append([]byte(nil), container[:at]...), uint32(len(spec)))
	out = append(append(out, spec...), container[at+4+n:]...)
	if off, _ := arenaPayload(t, out); off%payloadAlign == 0 {
		t.Fatalf("the payload of the unpadded container is still aligned, at offset %d", off)
	}
	return out
}

// totalAllocDuring reports the heap bytes f allocates in total.
func totalAllocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTruncatedSectionsFailBeforeAllocating cuts a BC-Tree container — plain
// and attributed — at every section boundary of the arena payload
// (the next section is missing) and one element short of it (the section
// declares one element more than fits). Every cut is ErrFormat, and because a
// sized stream refuses a section it cannot deliver before the make(), loading
// allocates the bytes that are there once: well under 1 MiB for a container
// of ~0.6 MB, where growing each section by doubling would pass it. The same
// holds through Open, which learns the size from the file. Sharded and
// Dynamic containers, whose payloads embed arena payloads, get a byte-grid
// sweep under the same bound, and the Dynamic payload's own sections the
// boundary cuts as well.
func TestTruncatedSectionsFailBeforeAllocating(t *testing.T) {
	const limit = 1 << 20
	data := specTestData(4000, 31, 5)
	check := func(name string, cut []byte) {
		t.Helper()
		var err error
		if got := totalAllocDuring(func() { _, err = Load(bytes.NewReader(cut)) }); got >= limit {
			t.Errorf("%s: loading %d bytes allocated %d", name, len(cut), got)
		}
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("%s: err = %v, want ErrFormat", name, err)
		}
	}
	for _, variant := range []string{"plain", "attributed"} {
		ix, err := New(data, Spec{Kind: KindBCTree, LeafSize: 50, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if variant == "attributed" {
			pts := make([]PointAttrs, data.N)
			for i := range pts {
				pts[i] = PointAttrs{Ints: map[string]int64{"row": int64(i)}}
			}
			if err := AttachAttributes(ix, pts); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := Save(&buf, ix); err != nil {
			t.Fatal(err)
		}
		good := buf.Bytes()
		pay, _ := arenaPayload(t, good)
		hdr := func(i int) int { return int(binary.LittleEndian.Uint32(good[pay+8+4*i:])) }
		n, d, nodes := hdr(1), hdr(2), hdr(3)
		// Section sizes in stream order, each with its element width.
		sections := []struct {
			name        string
			bytes, elem int
		}{
			{"header", 8 + 5*4, 4}, {"ids", 4 * n, 4}, {"points", 4 * n * d, 4}, {"centers", 4 * ((nodes + 1) / 2) * d, 4},
			{"node bounds", 16 * nodes, 8}, {"node links", 12 * nodes, 4},
			{"xcos", 2 * n, 2}, {"xsin", 2 * n, 2},
		}
		end := pay
		for _, sec := range sections {
			end += sec.bytes
			check(variant+": one element short of the end of "+sec.name, good[:end-sec.elem])
			if end < len(good) {
				check(variant+": cut after "+sec.name, good[:end])
			}
		}
		if end != len(good) {
			t.Fatalf("%s: sections add up to %d bytes, container has %d", variant, end, len(good))
		}
		if variant == "plain" {
			path := filepath.Join(t.TempDir(), "cut.p2h")
			if err := os.WriteFile(path, good[:len(good)-4], 0o644); err != nil {
				t.Fatal(err)
			}
			var err error
			if got := totalAllocDuring(func() { _, err = Open(path) }); got >= limit || !errors.Is(err, ErrFormat) {
				t.Errorf("Open of a container one element short: allocated %d, err %v", got, err)
			}
		}
	}

	small := specTestData(1500, 31, 5)
	for _, spec := range []Spec{
		{Kind: KindSharded, Shards: 3, Workers: 2, LeafSize: 50, Seed: 2},
		{Kind: KindDynamic, LeafSize: 50, Seed: 2},
	} {
		ix, err := New(small, spec)
		if err != nil {
			t.Fatal(err)
		}
		if dyn, ok := ix.(*Dynamic); ok { // a tombstone and a delta beside the snapshot
			dyn.Delete(7)
			for i := 0; i < 40; i++ {
				dyn.Insert(small.Row(i))
			}
		}
		var buf bytes.Buffer
		if err := Save(&buf, ix); err != nil {
			t.Fatal(err)
		}
		good := buf.Bytes()
		for cut := 0; cut < len(good); cut += len(good)/97 + 1 {
			check(fmt.Sprintf("%s cut at %d", spec.Kind, cut), good[:cut])
		}
		check(spec.Kind+" one byte short", good[:len(good)-1])
		if spec.Kind != KindDynamic {
			continue
		}
		// Every section boundary of the P2HDY005 payload, as for the arena
		// above; the embedded tree is one section here, and the padding
		// before it one more when there is any.
		pay := bytes.Index(good, []byte("P2HDY005"))
		handles := int(binary.LittleEndian.Uint32(good[pay+8+24:]))
		words := 8 * ((handles + 63) / 64)
		pad := -(40 + words + 1 + 8) & 3
		tree := int(binary.LittleEndian.Uint64(good[pay+40+words+pad+1:]))
		end := pay
		for _, sec := range []struct {
			name        string
			bytes, elem int
		}{
			{"header", 8 + 4 + 8 + 8 + 4 + 4 + 4, 4}, {"liveness", words, 8}, {"padding", pad, 1}, {"snapshot flag", 1, 1},
			{"tree length", 8, 8}, {"tree", tree, 4},
			{"delta base", 4, 4}, {"delta rows", 4 * 40 * (small.D + 1), 4},
		} {
			if sec.bytes == 0 {
				continue
			}
			end += sec.bytes
			check("dynamic: one element short of the end of "+sec.name, good[:end-sec.elem])
			if end < len(good) {
				check("dynamic: cut after "+sec.name, good[:end])
			}
		}
		if end != len(good) {
			t.Fatalf("dynamic: sections add up to %d bytes, container has %d", end, len(good))
		}
	}
}

// checkRetiredNamed asserts that Load, Open and Inspect each refuse the
// container old with an ErrFormat whose text carries every one of wants: the
// version found and the current one. Inspect loads nothing, but it reads as
// far as the magic of the (first) tree a container holds or embeds, and names
// a retired payload as Open does rather than describing the container.
func checkRetiredNamed(t *testing.T, what string, old []byte, wants ...string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "old.p2h")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, loadErr := Load(bytes.NewReader(old))
	_, openErr := Open(path)
	_, inspectErr := Inspect(bytes.NewReader(old))
	for entry, err := range map[string]error{"Load": loadErr, "Open": openErr, "Inspect": inspectErr} {
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("%s: %s: err = %v, want ErrFormat", what, entry, err)
		}
		for _, want := range wants {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: %s error %q does not mention %q", what, entry, err, want)
			}
		}
	}
}

// TestRetiredBCPayloadsAreNamed: a container written before the point-level
// arrays became float32 (P2HBC002/003), before a BC-Tree stopped storing its
// right children's centres (P2HBC004/005), before it stopped storing r_x
// (P2HBC006/007) or before its cone pair became 16-bit codes (P2HBC008/009) —
// a BC-Tree, or a Sharded or Dynamic index embedding one — is refused with an
// error that names the payload version it holds and the ones this build
// reads, by Load, Open and Inspect alike. So is a Sharded or Dynamic container
// from before the trees they embed spoke their holder's ids (P2HSH001,
// P2HDY002), a Dynamic one from before it aligned its tree (P2HDY003), and
// one from before its liveness became a bitmap (P2HDY004). There is no
// converter.
func TestRetiredBCPayloadsAreNamed(t *testing.T) {
	for kind, ix := range goldenRecipes(t) {
		if kind != KindBCTree && kind != KindSharded && kind != KindDynamic {
			continue
		}
		var buf bytes.Buffer
		if err := Save(&buf, ix); err != nil {
			t.Fatal(err)
		}
		_, current := arenaPayload(t, buf.Bytes())
		for retired, version := range map[string]string{
			"P2HBC002": "version 2", "P2HBC004": "version 4", "P2HBC005": "version 5",
			"P2HBC006": "version 6", "P2HBC007": "version 7", "P2HBC008": "version 8", "P2HBC009": "version 9",
		} {
			old := bytes.ReplaceAll(buf.Bytes(), []byte(current), []byte(retired))
			checkRetiredNamed(t, kind+" holding "+retired, old, retired, version, "P2HBT002/P2HBC010")
		}
		switch kind {
		case KindSharded:
			old := bytes.Replace(buf.Bytes(), []byte("P2HSH002"), []byte("P2HSH001"), 1)
			checkRetiredNamed(t, "P2HSH001", old, "P2HSH001", "version 1", "P2HSH002")
		case KindDynamic:
			for retired, version := range map[string]string{"P2HDY002": "version 2", "P2HDY003": "version 3", "P2HDY004": "version 4"} {
				old := bytes.Replace(buf.Bytes(), []byte("P2HDY005"), []byte(retired), 1)
				checkRetiredNamed(t, retired, old, retired, version, "P2HDY005")
			}
		}
	}
}

// TestRetiredMirroredPayloadsAreNamed: a payload that carried the 8-bit leaf
// mirror (P2HBT003, P2HBC011) — a tree of either kind, or a Sharded or
// Dynamic container embedding one — is refused with an error naming the magic
// found and the current ones, by balltree.Load on the payload itself and by
// Load, Open and Inspect on the container.
func TestRetiredMirroredPayloadsAreNamed(t *testing.T) {
	mirrored := map[string]string{"P2HBT002": "P2HBT003", "P2HBC010": "P2HBC011"}
	for kind, ix := range goldenRecipes(t) {
		var buf bytes.Buffer
		if err := Save(&buf, ix); err != nil {
			t.Fatal(err)
		}
		off, current := arenaPayload(t, buf.Bytes())
		retired := mirrored[current]
		old := bytes.ReplaceAll(buf.Bytes(), []byte(current), []byte(retired))
		treeKind := balltree.BC
		if current == "P2HBT002" {
			treeKind = balltree.Ball
		}
		_, err := balltree.Load(bytes.NewReader(old[off:]), treeKind, 1<<30)
		if !errors.Is(err, binio.ErrCorrupt) || !strings.Contains(err.Error(), retired) {
			t.Fatalf("%s: balltree.Load: err = %v, want ErrCorrupt naming %s", kind, err, retired)
		}
		checkRetiredNamed(t, kind+" holding "+retired, old, retired, "8-bit leaf mirror", "P2HBT002/P2HBC010")
	}
}

// TestRetiredDynamicPayloadIsNamed: a Dynamic container written before the
// tree became the index's only copy of its vectors (P2HDY001) is refused the
// same way, by Load, Open and Inspect alike — and so is the golden fixture the
// last release wrote (P2HDY004, liveness bytes), whose header still records
// the retired rebuild_fraction a user's spec may no longer set.
func TestRetiredDynamicPayloadIsNamed(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, goldenRecipes(t)[KindDynamic]); err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(buf.Bytes(), []byte("P2HDY005"), []byte("P2HDY001"), 1)
	checkRetiredNamed(t, "P2HDY001", old, "P2HDY001", "version 1", "P2HDY005")

	v4, err := os.ReadFile(goldenPath("dynamic-p2hdy004"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(v4, []byte(`"rebuild_fraction"`)) {
		t.Fatal("the P2HDY004 fixture's header does not record rebuild_fraction")
	}
	checkRetiredNamed(t, "P2HDY004 fixture", v4, "P2HDY004", "version 4", "P2HDY005")
}

// TestRetiredKDTreeContainerRefused: the KD-Tree was the last baseline with a
// codec of its own; it is build-only now. A container written while it still
// saved (the former golden fixture, kept as a FuzzOpenContainer seed) is
// refused with the registry's build-only reason — by Inspect and InspectFile
// too, which must not describe a container that Open will not open.
func TestRetiredKDTreeContainerRefused(t *testing.T) {
	seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzOpenContainer", "seed-kdtree"))
	if err != nil {
		t.Fatal(err)
	}
	quoted := strings.TrimSuffix(strings.TrimPrefix(string(seed), "go test fuzz v1\n[]byte("), ")\n")
	unquoted, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatalf("seed-kdtree is not a one-value fuzz corpus file: %v", err)
	}
	old := []byte(unquoted)
	path := filepath.Join(t.TempDir(), "kdtree.p2h")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, reason, err := KindIsPersistable(KindKDTree)
	if err != nil || reason == "" {
		t.Fatalf("kdtree: build-only reason %q, err %v", reason, err)
	}
	want := fmt.Sprintf("container holds build-only kind %q (%s)", KindKDTree, reason)
	_, loadErr := Load(bytes.NewReader(old))
	_, openErr := Open(path)
	_, inspectErr := Inspect(bytes.NewReader(old))
	_, inspectFileErr := InspectFile(path)
	for entry, err := range map[string]error{"Load": loadErr, "Open": openErr, "Inspect": inspectErr, "InspectFile": inspectFileErr} {
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want ErrFormat: %s", entry, err, want)
		}
	}
}

// TestSaveBuildOnlyKindsRefuse: the four baselines (KD-Tree, NH, FH and the
// scan, also under its 8-bit alias) are registered build-only; Save must say
// so instead of writing an unloadable file.
func TestSaveBuildOnlyKindsRefuse(t *testing.T) {
	data := specTestData(80, 6, 5)
	for _, kind := range []string{KindKDTree, KindNH, KindFH, KindLinearScan, KindQuantizedScan} {
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

// TestIntAttrsWithinExactFloats: a store holds int fields as float64, so the
// payload rule refuses an int beyond ±2^53 — a dynamic insert of MaxInt64
// and AttachAttributes of 2^53+1, on a dynamic index and on a tree — before
// the index changes, and ±2^53 come back from Save→Load as they went in.
func TestIntAttrsWithinExactFloats(t *testing.T) {
	data := specTestData(60, 4, 8)
	dyn := MustBuild(t, data, Spec{Kind: KindDynamic, Seed: 1}).(*Dynamic)
	if _, err := dyn.insert(data.Row(0), PointAttrs{Ints: map[string]int64{"x": math.MaxInt64}}); !errors.Is(err, attr.ErrPayload) {
		t.Fatalf("insert of MaxInt64: %v, want ErrPayload", err)
	}
	if dyn.Handles() != data.N || dyn.index.HasAttrs() {
		t.Fatalf("the refused insert changed the index: %d handles", dyn.Handles())
	}
	points := make([]PointAttrs, data.N)
	points[1] = PointAttrs{Ints: map[string]int64{"x": 1<<53 + 1}}
	for _, ix := range []Index{dyn, MustBuild(t, data, Spec{Kind: KindBCTree, Seed: 1})} {
		if err := AttachAttributes(ix, points); !errors.Is(err, attr.ErrPayload) {
			t.Fatalf("%s: AttachAttributes of 2^53+1: %v, want ErrPayload", KindOf(ix), err)
		}
	}
	points[1] = PointAttrs{Ints: map[string]int64{"x": 1 << 53}}
	points[2] = PointAttrs{Ints: map[string]int64{"x": -(1 << 53)}}
	if err := AttachAttributes(dyn, points); err != nil {
		t.Fatalf("AttachAttributes of ±2^53: %v", err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, dyn); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for h := int32(1); h <= 2; h++ {
		if got, want := back.(*Dynamic).index.AttrAt(h).Ints["x"], points[h].Ints["x"]; got != want {
			t.Fatalf("handle %d: %d after Save→Load, want %d", h, got, want)
		}
	}
}

// TestBareTreeStreamRejected: the container is the only persisted format. A
// tree payload without its envelope is refused by Load and Inspect as an
// unrecognized magic, not sniffed.
func TestBareTreeStreamRejected(t *testing.T) {
	data := specTestData(120, 7, 9)
	for _, ix := range []Index{
		MustBuild(t, data, Spec{Kind: KindBallTree, LeafSize: 20, Seed: 1}),
		MustBuild(t, data, Spec{Kind: KindBCTree, LeafSize: 20, Seed: 1}),
	} {
		var bare bytes.Buffer
		h := ix.(wrapped).base()
		if err := h.kind.save(&bare, h.in); err != nil {
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
// container behind, and must not touch the container already at the path: it
// keeps its bytes and still opens.
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

	good := MustBuild(t, data, Spec{Kind: KindBCTree, LeafSize: 10, Seed: 1})
	if err := SaveFile(path, good); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(path, nh); err == nil {
		t.Fatal("SaveFile succeeded on a build-only kind")
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(after, before) {
		t.Fatalf("a failed SaveFile changed the container at the path (err %v, %d bytes, had %d)", err, len(after), len(before))
	}
	if _, err := Open(path); err != nil {
		t.Fatalf("the container a failed SaveFile went over no longer opens: %v", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("SaveFile left temporary files behind: %v %v", entries, err)
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
// point count from the header region alone, for every kind Save can write and
// every payload version the arena codec emits — it follows the codec's own
// magic list, so a format bump cannot leave it reporting -1/-1.
func TestInspectEveryPersistableKind(t *testing.T) {
	seen := map[string]bool{}
	for name, ix := range codecVariants(t) {
		kind, _, _ := strings.Cut(name, "/")
		var buf bytes.Buffer
		if err := Save(&buf, ix); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, m := range balltree.PayloadMagics() {
			if bytes.Contains(buf.Bytes(), []byte(m)) {
				seen[m] = true
			}
		}
		info, err := Inspect(&buf)
		if err != nil {
			t.Fatalf("%s: Inspect: %v", name, err)
		}
		if info.Kind != kind {
			t.Fatalf("%s: Inspect kind=%q", name, info.Kind)
		}
		if info.Spec.Kind != kind {
			t.Fatalf("%s: Inspect spec kind %q", name, info.Spec.Kind)
		}
		if info.Dim != ix.Dim() || info.N != ix.N() {
			t.Fatalf("%s: Inspect dim=%d n=%d, want dim=%d n=%d", name, info.Dim, info.N, ix.Dim(), ix.N())
		}
		if want := strings.HasSuffix(name, "/attributed"); info.HasAttrs != want {
			t.Fatalf("%s: Inspect HasAttrs=%v", name, info.HasAttrs)
		}
	}
	if len(seen) != len(balltree.PayloadMagics()) {
		t.Fatalf("variants exercised payload magics %v of %v", seen, balltree.PayloadMagics())
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

// TestInspectRejectsMalformed: garbage and truncation fail with ErrFormat
// rather than a misread shape, and a header naming a kind the table does not
// know with ErrUnknownKind — Inspect fails where Load does.
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
	for name, c := range map[string]struct {
		data []byte
		want error
	}{
		"garbage":         {[]byte("not an index container at all"), ErrFormat},
		"empty":           {nil, ErrFormat},
		"cut mid-header":  {good[:10], ErrFormat},
		"cut mid-payload": {good[:30], ErrFormat}, // 30 bytes: inside the kind/spec blocks
		"cut mid-shape":   {good[:bytes.Index(good, []byte("P2HBC"))+12], ErrFormat},
		"other kind's payload": {
			bytes.Replace(good, []byte("\x06\x00\x00\x00bctree"), []byte("\x08\x00\x00\x00balltree"), 1), ErrFormat},
		"unknown kind": {buildContainer("mycustom", `{"kind":"mycustom","leaf_size":7}`, []byte("XYZPAY01rest-of-the-payload")), ErrUnknownKind},
	} {
		if _, err := Inspect(bytes.NewReader(c.data)); !errors.Is(err, c.want) {
			t.Errorf("%s: Inspect err = %v, want %v", name, err, c.want)
		}
		if _, err := Load(bytes.NewReader(c.data)); !errors.Is(err, c.want) {
			t.Errorf("%s: Load err = %v, want %v", name, err, c.want)
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
