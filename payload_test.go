package p2h

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// payloadFixture is a 500-point dynamic index saved to a container and
// served with a WALSyncAlways log beside it: the daemon's write path.
type payloadFixture struct {
	path string
	d    *Dynamic
	wal  *WAL
	srv  *Server
	rng  *rand.Rand
}

func newPayloadFixture(t *testing.T) *payloadFixture {
	t.Helper()
	f := &payloadFixture{path: filepath.Join(t.TempDir(), "ix.p2h"), rng: rand.New(rand.NewSource(9))}
	data := NewMatrix(500, 5)
	for i := range data.Data {
		data.Data[i] = f.rng.Float32()*2 - 1
	}
	f.d = MustBuild(t, data, Spec{Kind: KindDynamic, Seed: 1}).(*Dynamic)
	if err := SaveFile(f.path, f.d); err != nil {
		t.Fatal(err)
	}
	var err error
	if f.wal, err = AttachWAL(f.d, WALPath(f.path), WALSyncAlways); err != nil {
		t.Fatal(err)
	}
	f.srv = NewServer(f.d, ServerOptions{Workers: 1, WAL: f.wal})
	t.Cleanup(f.close)
	return f
}

func (f *payloadFixture) point() []float32 {
	p := make([]float32, 5)
	for i := range p {
		p[i] = f.rng.Float32()*2 - 1
	}
	return p
}

func (f *payloadFixture) close() {
	f.srv.Close()
	f.wal.Close()
}

// files returns the container's and the log's bytes.
func (f *payloadFixture) files(t *testing.T) (container, log []byte) {
	t.Helper()
	container, err := os.ReadFile(f.path)
	if err != nil {
		t.Fatal(err)
	}
	if log, err = os.ReadFile(WALPath(f.path)); err != nil {
		t.Fatal(err)
	}
	return container, log
}

// refused runs call, which must fail, and checks it changed nothing: N, the
// handle count and the bytes of both files are as they were.
func (f *payloadFixture) refused(t *testing.T, call func() error) {
	t.Helper()
	n, handles := f.d.N(), f.d.Handles()
	container, log := f.files(t)
	if err := call(); err == nil {
		t.Fatal("a payload no container or log can carry was accepted")
	}
	if f.d.N() != n || f.d.Handles() != handles {
		t.Fatalf("refused call moved the index: N %d→%d, handles %d→%d", n, f.d.N(), handles, f.d.Handles())
	}
	if c, l := f.files(t); !bytes.Equal(c, container) || !bytes.Equal(l, log) {
		t.Fatal("refused call changed the container or the log")
	}
}

// reopen closes the server and the log and opens the container, replaying
// the log; it must succeed with the handle count the server reached.
func (f *payloadFixture) reopen(t *testing.T) *Dynamic {
	t.Helper()
	handles := f.d.Handles()
	f.close()
	ix, err := Open(f.path)
	if err != nil {
		t.Fatalf("Open after a refused payload: %v", err)
	}
	d := ix.(*Dynamic)
	if d.Handles() != handles {
		t.Fatalf("reopened index has %d handles, the server reached %d", d.Handles(), handles)
	}
	return d
}

// TestInsertRefusesPayloadOverOneMiB: a payload whose encoding exceeds the
// 1 MiB a log record may carry is refused before the index changes, so the
// plain insert after it takes the next handle and the log replays.
func TestInsertRefusesPayloadOverOneMiB(t *testing.T) {
	f := newPayloadFixture(t)
	tags := make([]string, 300)
	for i := range tags {
		tags[i] = strings.Repeat(string(rune('a'+i%26)), 4000)
	}
	f.refused(t, func() error {
		_, err := f.srv.InsertWithAttrs(f.point(), PointAttrs{Tags: tags})
		return err
	})
	if h, err := f.srv.Insert(f.point()); err != nil || h != 500 {
		t.Fatalf("plain insert after the refusal: handle %d, %v", h, err)
	}
	if d := f.reopen(t); d.N() != 501 {
		t.Fatalf("reopened N = %d, want 501", d.N())
	}
}

// TestInsertRefusesTagOverUint16: a tag longer than the log's uint16 length
// prefix is refused rather than acknowledged and logged unreadable.
func TestInsertRefusesTagOverUint16(t *testing.T) {
	f := newPayloadFixture(t)
	f.refused(t, func() error {
		_, err := f.srv.InsertWithAttrs(f.point(), PointAttrs{Tags: []string{strings.Repeat("t", 70000)}})
		return err
	})
	if d := f.reopen(t); d.N() != 500 {
		t.Fatalf("reopened N = %d, want 500", d.N())
	}
}

// TestPayloadRefusesTagOverSectionName: a tag longer than a container's
// attribute section admits is refused on both ways in — a server insert and
// AttachAttributes on a BC-Tree — so a snapshot or save that follows loads.
func TestPayloadRefusesTagOverSectionName(t *testing.T) {
	long := PointAttrs{Tags: []string{strings.Repeat("t", 5000)}}

	f := newPayloadFixture(t)
	if _, err := f.srv.InsertWithAttrs(f.point(), PointAttrs{Tags: []string{"short"}}); err != nil {
		t.Fatal(err)
	}
	f.refused(t, func() error {
		_, err := f.srv.InsertWithAttrs(f.point(), long)
		return err
	})
	if _, err := f.srv.Snapshot(f.path); err != nil {
		t.Fatal(err)
	}
	if d := f.reopen(t); d.N() != 501 || d.index.Attrs() == nil {
		t.Fatalf("reopened N = %d (attributes %v), want 501 with attributes", d.N(), d.index.Attrs() != nil)
	}

	data := NewMatrix(50, 5)
	for i := range data.Data {
		data.Data[i] = float32(i%7) - float32(i%3)
	}
	tree := MustBuild(t, data, Spec{Kind: KindBCTree, LeafSize: 10, Seed: 2})
	points := make([]PointAttrs, data.N)
	points[3] = long
	if err := AttachAttributes(tree, points); err == nil {
		t.Fatal("AttachAttributes accepted a 5000-byte tag")
	}
	path := filepath.Join(t.TempDir(), "tree.p2h")
	if err := SaveFile(path, tree); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err != nil {
		t.Fatalf("Open after a refused AttachAttributes: %v", err)
	}
}

// TestInsertRefusesFieldKindClash: a field that is an int in one payload and
// a float in another would leave a column no container can hold, and every
// later Snapshot would fail; the second insert is refused instead.
func TestInsertRefusesFieldKindClash(t *testing.T) {
	f := newPayloadFixture(t)
	if _, err := f.srv.InsertWithAttrs(f.point(), PointAttrs{Ints: map[string]int64{"year": 1999}}); err != nil {
		t.Fatal(err)
	}
	f.refused(t, func() error {
		_, err := f.srv.InsertWithAttrs(f.point(), PointAttrs{Floats: map[string]float64{"year": 1999.5}})
		return err
	})
	if _, err := f.srv.Snapshot(f.path); err != nil {
		t.Fatal(err)
	}
	if d := f.reopen(t); d.N() != 501 {
		t.Fatalf("reopened N = %d, want 501", d.N())
	}
}
