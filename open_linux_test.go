package p2h

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The lifetime of an opened container's mapping, read off /proc/self/maps.

// mappingsUnder counts the entries of /proc/self/maps that map a file under
// dir — a replaced or unlinked one included, which the kernel lists with
// " (deleted)" after its old name.
func mappingsUnder(t *testing.T, dir string) int {
	t.Helper()
	b, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(b), dir+string(filepath.Separator))
}

// TestOpenedIndexOutlivesItsFile: an index Open served from the mapped file
// keeps answering bit for bit as the index that was saved while the file is
// replaced by rename and then unlinked, with collections forced between the
// rounds — the mapping belongs to the index, not to the path.
func TestOpenedIndexOutlivesItsFile(t *testing.T) {
	data := specTestData(3000, 31, 7)
	other := specTestData(400, 31, 9)
	queries := GenerateQueries(data, 12, 8)
	dir := t.TempDir()
	for _, spec := range []Spec{
		{Kind: KindBCTree, LeafSize: 50, Seed: 1},
		{Kind: KindBallTree, LeafSize: 50, Seed: 1},
		{Kind: KindSharded, Shards: 3, LeafSize: 50, Seed: 1},
		{Kind: KindDynamic, LeafSize: 50, Seed: 1},
	} {
		path := filepath.Join(dir, spec.Kind+".p2h")
		fresh := MustBuild(t, data, spec)
		if err := SaveFile(path, fresh); err != nil {
			t.Fatal(err)
		}
		opened, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if mappingsUnder(t, dir) == 0 {
			t.Fatalf("%s: Open mapped nothing", spec.Kind)
		}
		want := answersOf(fresh, queries)
		for round, change := range []func() error{
			func() error { return nil },
			func() error { return SaveFile(path, MustBuild(t, other, spec)) },
			func() error { return os.Remove(path) },
		} {
			if err := change(); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.GC()
			if got := answersOf(opened, queries); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: round %d: the opened index's answers changed", spec.Kind, round)
			}
		}
	}
}

// TestOpenAndDropReleasesMappings: 200 hot-swap-like cycles — open, search,
// drop — leave no mapping of the container behind once the dropped indexes
// have been collected.
func TestOpenAndDropReleasesMappings(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "swap.p2h")
	data := specTestData(600, 15, 3)
	if err := SaveFile(path, MustBuild(t, data, Spec{Kind: KindBCTree, LeafSize: 40, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	q := GenerateQueries(data, 1, 4).Row(0)
	for i := 0; i < 200; i++ {
		ix, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if res, _ := ix.Search(q, SearchOptions{K: 3}); len(res) != 3 {
			t.Fatalf("cycle %d: %d results", i, len(res))
		}
		if i == 0 && mappingsUnder(t, dir) == 0 {
			t.Fatal("Open mapped nothing")
		}
	}
	// A tree is free two collections after its last search (its free lists
	// are sync.Pools), and its mapping goes on the cleanup goroutine after it.
	deadline := time.Now().Add(10 * time.Second)
	for n := mappingsUnder(t, dir); n > 0; n = mappingsUnder(t, dir) {
		if time.Now().After(deadline) {
			t.Fatalf("%d mappings of the container left after 200 open-and-drop cycles", n)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestOpenDoesNotCopyThePoints: opening a 4 000 × 31 BC-Tree container
// allocates well under a quarter of its point section, which it serves from
// the mapped file; decoding a copy allocates more than the whole file.
func TestOpenDoesNotCopyThePoints(t *testing.T) {
	data := specTestData(4000, 31, 5)
	fresh := MustBuild(t, data, Spec{Kind: KindBCTree, LeafSize: 50, Seed: 2})
	path := filepath.Join(t.TempDir(), "bc.p2h")
	if err := SaveFile(path, fresh); err != nil {
		t.Fatal(err)
	}
	pointBytes := uint64(4 * data.N * (data.D + 1))
	var opened Index
	var err error
	if got := totalAllocDuring(func() { opened, err = Open(path) }); err != nil || got >= pointBytes/4 {
		t.Fatalf("Open allocated %d bytes (err %v), want under a quarter of the %d-byte point section", got, err, pointBytes)
	}
	queries := GenerateQueries(data, 8, 6)
	if !reflect.DeepEqual(answersOf(opened, queries), answersOf(fresh, queries)) {
		t.Fatal("the opened index answers differently from the one saved")
	}
}

// TestOpenMapsTheDynamicSnapshotTree: a dynamic container's snapshot tree sits
// behind the liveness bitmap, 8 bytes per 64 handles, and the payload pads it
// so the tree is aligned whatever the handle count. For counts of every
// residue mod 4, opening allocates under a quarter of the point section and
// under the size of the tree's two code arrays, so the points, ids and codes
// are all views of the mapping; and the opened index answers as the one
// saved. (Leaves of 400 keep the node records, which are decoded, small beside
// the codes; the bitmap, read and then decoded into words, is what is left.)
func TestOpenMapsTheDynamicSnapshotTree(t *testing.T) {
	dir := t.TempDir()
	for n := 12000; n < 12004; n++ {
		data := specTestData(n, 7, 5)
		fresh := MustBuild(t, data, Spec{Kind: KindDynamic, LeafSize: 400, Seed: 2})
		path := filepath.Join(dir, "dyn.p2h")
		if err := SaveFile(path, fresh); err != nil {
			t.Fatal(err)
		}
		pointBytes, codeBytes := uint64(4*n*(data.D+1)), uint64(2*2*n)
		var opened Index
		var err error
		got := totalAllocDuring(func() { opened, err = Open(path) })
		if err != nil || got >= pointBytes/4 || got >= codeBytes {
			t.Fatalf("%d handles: Open allocated %d bytes (err %v), want under %d, a quarter of the point section, and under the %d-byte code arrays",
				n, got, err, pointBytes/4, codeBytes)
		}
		queries := GenerateQueries(data, 6, 6)
		if !reflect.DeepEqual(answersOf(opened, queries), answersOf(fresh, queries)) {
			t.Fatalf("%d handles: the opened index answers differently from the one saved", n)
		}
	}
}

// TestSaveFileServesFromTheFile: once SaveFile has written an index, the index
// serves from a mapping of that file, as one Open returned would. For every
// persistable kind the live heap falls by at least three quarters of the
// point section, and the index answers as it did before the save.
func TestSaveFileServesFromTheFile(t *testing.T) {
	data := specTestData(20000, 31, 11)
	queries := GenerateQueries(data, 8, 12)
	pointBytes := int64(4 * data.N * (data.D + 1))
	for _, spec := range []Spec{
		{Kind: KindBCTree, LeafSize: 50, Seed: 1},
		{Kind: KindBallTree, LeafSize: 50, Seed: 1},
		{Kind: KindSharded, Shards: 4, LeafSize: 50, Seed: 1},
		{Kind: KindDynamic, LeafSize: 50, Seed: 1},
	} {
		dir := t.TempDir()
		ix := MustBuild(t, data, spec)
		want := answersOf(ix, queries)
		before := liveHeap()
		if err := SaveFile(filepath.Join(dir, "ix.p2h"), ix); err != nil {
			t.Fatal(err)
		}
		after := liveHeap()
		if mappingsUnder(t, dir) == 0 {
			t.Fatalf("%s: the saved index maps nothing of its file", spec.Kind)
		}
		fell := before - after
		t.Logf("%s: the live heap fell by %d bytes on saving; the point section is %d", spec.Kind, fell, pointBytes)
		if fell < pointBytes*3/4 {
			t.Fatalf("%s: the live heap fell by %d bytes on saving, want at least 3/4 of the %d-byte point section",
				spec.Kind, fell, pointBytes)
		}
		if got := answersOf(ix, queries); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the saved index answers differently", spec.Kind)
		}
	}
}

// liveHeap returns the bytes of heap live after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
