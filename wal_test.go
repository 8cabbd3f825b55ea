package p2h

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"p2h/internal/binio"
)

// dynSaveBytes canonicalizes (Compact folds the delta deterministically)
// and serializes, so two equivalent indexes compare byte-identical
// regardless of when their rebuilds happened to trigger.
func dynSaveBytes(t *testing.T, d *Dynamic) []byte {
	t.Helper()
	d.index.Compact()
	var buf bytes.Buffer
	if err := Save(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestServerWALRecoversAcknowledgedMutations(t *testing.T) {
	dir := t.TempDir()
	ixPath := filepath.Join(dir, "ix.p2h")
	const dim = 6

	// Reference index mutated in lockstep, never persisted: the state every
	// acknowledged mutation should reproduce.
	ref := MustBuild(t, nil, Spec{Kind: KindDynamic, Dim: dim, Seed: 5}).(*Dynamic)

	build := func() (*Server, *WAL) {
		var ix Index
		if _, err := os.Stat(ixPath); err == nil {
			var oerr error
			ix, oerr = Open(ixPath)
			if oerr != nil {
				t.Fatal(oerr)
			}
		} else {
			ix = MustBuild(t, nil, Spec{Kind: KindDynamic, Dim: dim, Seed: 5}).(*Dynamic)
		}
		w, err := AttachWAL(ix, WALPath(ixPath), WALSyncNone)
		if err != nil {
			t.Fatal(err)
		}
		return NewServer(ix, ServerOptions{Workers: 2, WAL: w}), w
	}

	rng := rand.New(rand.NewSource(21))
	var handles []int32
	point := func() []float32 {
		p := make([]float32, dim)
		for i := range p {
			p[i] = rng.Float32()*2 - 1
		}
		return p
	}

	srv, w := build()
	for round := 0; round < 4; round++ {
		for i := 0; i < 150; i++ {
			if len(handles) == 0 || rng.Intn(4) > 0 {
				p := point()
				h, err := srv.Insert(p)
				if err != nil {
					t.Fatal(err)
				}
				if rh := ref.Insert(p); rh != h {
					t.Fatalf("round %d: handle %d, reference %d", round, h, rh)
				}
				handles = append(handles, h)
			} else {
				j := rng.Intn(len(handles))
				ok, err := srv.Delete(handles[j])
				if err != nil {
					t.Fatal(err)
				}
				if rok := ref.Delete(handles[j]); rok != ok {
					t.Fatalf("round %d: delete diverged", round)
				}
				handles = append(handles[:j], handles[j+1:]...)
			}
		}
		switch round {
		case 0:
			// Snapshot absorbs the log.
			if _, err := srv.Snapshot(ixPath); err != nil {
				t.Fatal(err)
			}
			if w.Records() != 0 {
				t.Fatalf("round %d: %d records after snapshot", round, w.Records())
			}
		case 1, 2:
			// "Crash": drop the server without snapshotting; the log alone
			// carries rounds of mutations. Drain flushes nothing extra —
			// every acknowledged mutation is already on disk.
			srv.Close()
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			srv, w = build()
			d := srv.Index().(*Dynamic)
			if d.Handles() != ref.Handles() || d.N() != ref.N() {
				t.Fatalf("round %d: recovered handles/N %d/%d, want %d/%d",
					round, d.Handles(), d.N(), ref.Handles(), ref.N())
			}
		}
	}
	srv.Close()
	w.Close()

	// Final recovery must be byte-identical to the always-in-memory
	// reference after canonicalization.
	ix, err := Open(ixPath)
	if err != nil {
		t.Fatal(err)
	}
	got := dynSaveBytes(t, ix.(*Dynamic))
	want := dynSaveBytes(t, ref)
	if !bytes.Equal(got, want) {
		t.Fatal("recovered Save bytes differ from the in-memory reference")
	}
}

func TestOpenSkipsRecordsAlreadyInSnapshot(t *testing.T) {
	// A crash between the snapshot rename and the log truncation leaves a
	// log whose records are already inside the container; Open must skip
	// them, not double-apply.
	dir := t.TempDir()
	ixPath := filepath.Join(dir, "ix.p2h")
	const dim = 4

	ix := MustBuild(t, nil, Spec{Kind: KindDynamic, Dim: dim, Seed: 9}).(*Dynamic)
	w, err := AttachWAL(ix, WALPath(ixPath), WALSyncNone)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ix, ServerOptions{Workers: 1, WAL: w})
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 80; i++ {
		p := make([]float32, dim)
		for j := range p {
			p[j] = rng.Float32()
		}
		if _, err := srv.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Delete(3); err != nil {
		t.Fatal(err)
	}

	// Preserve the pre-truncation log, snapshot, then put the stale log
	// back — exactly the on-disk state of a crash after rename.
	walBytes, err := os.ReadFile(WALPath(ixPath))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Snapshot(ixPath); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	w.Close()
	if err := os.WriteFile(WALPath(ixPath), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(ixPath)
	if err != nil {
		t.Fatal(err)
	}
	d := re.(*Dynamic)
	if d.Handles() != 80 || d.N() != 79 {
		t.Fatalf("recovered handles=%d N=%d, want 80/79", d.Handles(), d.N())
	}
	if d.Delete(3) {
		t.Fatal("handle 3 resurrected by replaying a snapshot-covered delete")
	}
}

func TestOpenRejectsStaleSnapshotUnderNewerWAL(t *testing.T) {
	// The converse mismatch: a log truncated against a newer snapshot that
	// has since been replaced by an older container. The history between
	// the two is in neither file — Open must refuse.
	dir := t.TempDir()
	ixPath := filepath.Join(dir, "ix.p2h")
	const dim = 3

	ix := MustBuild(t, nil, Spec{Kind: KindDynamic, Dim: dim, Seed: 1}).(*Dynamic)
	for i := 0; i < 10; i++ {
		ix.Insert([]float32{float32(i), 1, 2})
	}
	if err := SaveFile(ixPath, ix); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(ixPath)
	if err != nil {
		t.Fatal(err)
	}

	w, err := AttachWAL(ix, WALPath(ixPath), WALSyncNone)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ix, ServerOptions{Workers: 1, WAL: w})
	for i := 0; i < 5; i++ {
		if _, err := srv.Insert([]float32{9, 9, 9}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Snapshot(ixPath); err != nil { // truncates at handle 15
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := srv.Insert([]float32{8, 8, 8}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	w.Close()

	// Roll the container back to the 10-handle state.
	if err := os.WriteFile(ixPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ixPath); !errors.Is(err, ErrFormat) {
		t.Fatalf("Open with stale snapshot: err = %v, want ErrFormat", err)
	}
}

func TestInspectFileReportsPendingWAL(t *testing.T) {
	dir := t.TempDir()
	ixPath := filepath.Join(dir, "ix.p2h")
	const dim = 5

	ix := MustBuild(t, nil, Spec{Kind: KindDynamic, Dim: dim, Seed: 2}).(*Dynamic)
	for i := 0; i < 30; i++ {
		ix.Insert(make([]float32, dim))
	}
	if err := SaveFile(ixPath, ix); err != nil {
		t.Fatal(err)
	}

	// No sidecar yet.
	info, err := InspectFile(ixPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.WALPath != "" || info.WALRecords != 0 {
		t.Fatalf("no sidecar: WALPath=%q WALRecords=%d", info.WALPath, info.WALRecords)
	}
	if info.Kind != KindDynamic || info.N != 30 || info.Dim != dim {
		t.Fatalf("info = %+v", info)
	}

	// Mutations through a durable server leave pending records.
	w, err := AttachWAL(ix, WALPath(ixPath), WALSyncNone)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ix, ServerOptions{Workers: 1, WAL: w})
	for i := 0; i < 7; i++ {
		if _, err := srv.Insert(make([]float32, dim)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Delete(0); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	w.Close()

	info, err = InspectFile(ixPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.WALPath != WALPath(ixPath) || info.WALRecords != 8 {
		t.Fatalf("pending sidecar: WALPath=%q WALRecords=%d, want %q/8",
			info.WALPath, info.WALRecords, WALPath(ixPath))
	}
	// The container itself is untouched by logged-but-unsnapshotted
	// mutations.
	if info.N != 30 {
		t.Fatalf("container N=%d, want the snapshotted 30", info.N)
	}

	// A corrupt sidecar fails the inspection.
	raw, err := os.ReadFile(WALPath(ixPath))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(WALPath(ixPath), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := InspectFile(ixPath); !errors.Is(err, ErrFormat) {
		t.Fatalf("corrupt sidecar: err = %v, want ErrFormat", err)
	}
}

func TestAttachWALRejectsImmutableIndex(t *testing.T) {
	data := specTestData(50, 4, 7)
	ix, err := New(data, Spec{Kind: KindBCTree})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AttachWAL(ix, filepath.Join(t.TempDir(), "x.wal"), WALSyncAlways); err == nil {
		t.Fatal("AttachWAL accepted an immutable index")
	}
}

func TestParseWALSyncMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want WALSyncMode
		ok   bool
	}{
		{"", WALSyncAlways, true},
		{"always", WALSyncAlways, true},
		{"none", WALSyncNone, true},
		{"sometimes", 0, false},
	} {
		got, err := ParseWALSyncMode(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseWALSyncMode(%q) = %v, %v", tc.in, got, err)
		}
	}
}

var genContainerCorpus = flag.Bool("gen-container-corpus", false,
	"regenerate testdata/fuzz/FuzzOpenContainer seed corpus")

// containerFuzzSeeds builds small but structurally complete containers for
// the container-decoder fuzz target.
func containerFuzzSeeds(t testing.TB) map[string][]byte {
	save := func(ix Index, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Save(&buf, ix); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	data := specTestData(40, 4, 7)
	dyn := MustBuild(t, data, Spec{Kind: KindDynamic, Seed: 3}).(*Dynamic)
	dyn.Delete(5)
	dyn.Insert([]float32{1, 2, 3, 4})
	var dynBuf bytes.Buffer
	if err := Save(&dynBuf, dyn); err != nil {
		t.Fatal(err)
	}
	bc := save(New(data, Spec{Kind: KindBCTree, LeafSize: 16, Seed: 2}))
	truncated := bc[:len(bc)*2/3]
	flipped := append([]byte(nil), dynBuf.Bytes()...)
	flipped[len(flipped)/2] ^= 0x20
	// A NaN radius on the last node, a leaf: it passes every ordered
	// comparison, so only an explicit finiteness check rejects it. The node
	// radius column (radius and centerNorm, 16 bytes a node) follows the
	// payload's header (8+5*4), ids, points and the (nodes+1)/2 centers.
	nanRadius := append([]byte(nil), bc...)
	pay, _ := arenaPayload(t, nanRadius)
	hdr := func(i int) int { return int(binary.LittleEndian.Uint32(nanRadius[pay+8+4*i:])) }
	n, d, nodes := hdr(1), hdr(2), hdr(3)
	radius := pay + 28 + 4*n + 4*n*d + 4*((nodes+1)/2)*d + 16*(nodes-1)
	binary.LittleEndian.PutUint64(nanRadius[radius:], math.Float64bits(math.NaN()))
	// The root's centre a float32 step off the lifted last coordinate: the
	// ball bounds charge a radius the query's normal part only because no
	// centre differs from its points there, so the loader refuses it.
	centreLift := append([]byte(nil), bc...)
	root := pay + 28 + 4*n + 4*n*d
	binary.LittleEndian.PutUint32(centreLift[root+4*(d-1):], math.Float32bits(math.Nextafter32(1, 2)))
	// Two NaN coordinates in an unaligned container: points are not checked
	// finite, so it loads — through the copy path when decoded in place — and
	// both decoders must answer with the same NaN distances.
	nanPoint := unpadded(t, save(New(data, Spec{Kind: KindBCTree, LeafSize: 16})))
	pay, _ = arenaPayload(t, nanPoint)
	points := pay + 28 + 4*n
	binary.LittleEndian.PutUint32(nanPoint[points+4*2:], math.Float32bits(float32(math.NaN())))
	binary.LittleEndian.PutUint32(nanPoint[points+4*(39*d+3):], math.Float32bits(float32(math.NaN())))
	attributed, err := New(data, Spec{Kind: KindBCTree, LeafSize: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]PointAttrs, data.N)
	for i := range pts {
		pts[i] = PointAttrs{Tags: []string{"t"}, Ints: map[string]int64{"c": int64(i)}}
	}
	if err := AttachAttributes(attributed, pts); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"seed-bctree":     bc,
		"seed-dynamic":    dynBuf.Bytes(),
		"seed-sharded":    save(New(data, Spec{Kind: KindSharded, Shards: 2, LeafSize: 16, Seed: 2})),
		"seed-attrs":      save(attributed, nil),
		"seed-truncated":  truncated,
		"seed-flipped":    flipped,
		"seed-nanradius":  nanRadius,
		"seed-centrelift": centreLift,
		"nan-point":       nanPoint,
		"seed-badmagic":   []byte("NOTANIDX container bytes"),
		"seed-empty":      {},
	}
}

// TestGenerateContainerFuzzCorpus rewrites the checked-in seed corpus when
// run with -gen-container-corpus.
func TestGenerateContainerFuzzCorpus(t *testing.T) {
	if !*genContainerCorpus {
		t.Skip("run with -gen-container-corpus to regenerate")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzOpenContainer")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range containerFuzzSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzOpenContainer asserts the container decoders' contract over arbitrary
// bytes, for Load off a stream and for the in-place decoder Open runs over a
// mapped file alike: neither panics, corruption surfaces as ErrFormat (or
// ErrUnknownKind for an intact header naming no backend) from both — and a
// container that does load supports Save and answers basic queries, so a
// bit-flip can never smuggle a half-broken index past the loader. The two
// decoders accept the same inputs, answer the probe query the same and save
// the same bytes.
func FuzzOpenContainer(f *testing.F) {
	for _, data := range containerFuzzSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := Load(bytes.NewReader(data))
		inPlace, inPlaceErr := load(binio.NewBytesReader(data, nil))
		for _, e := range []error{err, inPlaceErr} {
			if e != nil && !errors.Is(e, ErrFormat) && !errors.Is(e, ErrUnknownKind) {
				t.Fatalf("decode error %v wraps neither ErrFormat nor ErrUnknownKind", e)
			}
		}
		if (err == nil) != (inPlaceErr == nil) || errors.Is(err, ErrUnknownKind) != errors.Is(inPlaceErr, ErrUnknownKind) {
			t.Fatalf("the decoders disagree: stream %v, in place %v", err, inPlaceErr)
		}
		if err != nil {
			return
		}
		// A loaded index must be internally consistent enough to serve.
		if ix.Dim() <= 0 {
			t.Fatalf("loaded index reports dim %d", ix.Dim())
		}
		if n := ix.N(); n > 0 {
			q := make([]float32, ix.Dim()+1)
			q[0] = 1
			res, _ := ix.Search(q, SearchOptions{K: 3})
			if len(res) == 0 {
				t.Fatalf("loaded index with %d points returned no results", n)
			}
			// Bit for bit: points are not checked finite, so a distance may be NaN.
			got, _ := inPlace.Search(q, SearchOptions{K: 3})
			if !slices.EqualFunc(got, res, func(a, b Result) bool {
				return a.ID == b.ID && math.Float64bits(a.Dist) == math.Float64bits(b.Dist)
			}) {
				t.Fatalf("the decoders answer differently: stream %v, in place %v", res, got)
			}
		}
		var buf, again bytes.Buffer
		if err := Save(&buf, ix); err != nil {
			t.Fatalf("re-saving a loaded index: %v", err)
		}
		if err := Save(&again, inPlace); err != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Fatalf("the decoders' indexes save differently (err %v)", err)
		}
	})
}
