package balltree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"p2h/internal/binio"
	"p2h/internal/core"
	"p2h/internal/dataset"
)

// TestSaveLoadRoundTrip: a tree decoded off a stream has the saved one's
// shape and invariants, and answers every Figure 8 variant as it does,
// counters and all.
func TestSaveLoadRoundTrip(t *testing.T) {
	shapes := variants("", 7)
	for i := range shapes {
		shapes[i].paths = []string{viaLoaded}
	}
	shapes[0].check = func(t *testing.T, c *cell) {
		restored, orig := c.r.twin(t, viaLoaded), c.r.tree
		if restored.N() != orig.N() || restored.Dim() != orig.Dim() || restored.kind != orig.kind ||
			restored.Nodes() != orig.Nodes() || restored.Leaves() != orig.Leaves() || restored.LeafSize() != orig.LeafSize() {
			t.Fatalf("metadata mismatch: %s vs %s", restored, orig)
		}
		checkTreeInvariants(t, restored)
	}
	matrixView{rows: plainRows, sets: setsNamed("clustered"), queries: 10, shapes: fixed(shapes...)}.run(t)
}

// payloadOffsets locates sections of a saved payload so
// corruption tests can patch single values: the float64 node radius column
// (stride 8 for Ball, 16 with centerNorm for BC), the int32 link rows (start,
// end, left, right for Ball; start, end, right for BC) and, BC only, the
// uint16 xcos/xsin code arrays.
func payloadOffsets(t *Tree) (radius, links, xcos, xsin int) {
	n, d, nodes := t.N(), t.Dim(), t.Nodes()
	radius = 8 + 5*4 + 4*n + 4*n*d + 4*t.sec().centers.N*d
	boundStride, linkStride := 8, 16
	if t.kind == BC {
		boundStride, linkStride = 16, 12
	}
	links = radius + nodes*boundStride
	xcos = links + nodes*linkStride
	return radius, links, xcos, xcos + 2*n
}

func patchF64(good []byte, off int, v float64) []byte {
	bad := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(bad[off:], math.Float64bits(v))
	return bad
}

func patchI32(good []byte, off int, v int32) []byte {
	bad := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[off:], uint32(v))
	return bad
}

func patchU16(good []byte, off int, v uint16) []byte {
	bad := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(bad[off:], v)
	return bad
}

func TestLoadRejectsCorruptInput(t *testing.T) { forKinds(t, testLoadRejectsCorruptInput) }

func testLoadRejectsCorruptInput(t *testing.T, kind Kind) {
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyUniform, RawDim: 5}, 80, 6)
	orig := Build(raw.AppendOnes(), kind, Config{LeafSize: 10, Seed: 7})
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := Load(bytes.NewReader(good), kind, 0); err != nil {
		t.Fatalf("pristine payload: %v", err)
	}
	radius, links, xcos, xsin := payloadOffsets(orig)

	// Flip the node-count header field (offset: 8 magic + 4 leafSize + 4 n + 4 d).
	badNodes := append([]byte(nil), good...)
	badNodes[8+12], badNodes[8+13] = 0xFF, 0xFF

	// The root's right link is the last field of the first link row; its
	// right child has a sibling subtree before it and a node after it.
	rootRight := links + 8
	if kind == Ball {
		rootRight += 4
	}
	right := orig.nodes[0].right
	if right < 3 || int(right)+1 >= orig.Nodes() {
		t.Fatalf("fixture: root's right child is node %d of %d", right, orig.Nodes())
	}

	cases := map[string][]byte{
		"empty":              {},
		"short magic":        good[:4],
		"bad magic":          append([]byte("XXXXXXXX"), good[8:]...),
		"other kind's magic": append([]byte(magics[1-kind]), good[8:]...),
		// The pointer-tree era's version 1 payloads are no longer read.
		"v1 magic":           append([]byte(magics[kind][:7]+"1"), good[8:]...),
		"truncated half":     good[:len(good)/2],
		"truncated tail":     good[:len(good)-9],
		"corrupt node count": badNodes,
		// The searches take a node's left child to be the next node and never
		// look at where the right subtree starts again: the arena must be in
		// preorder, not merely a tree.
		"even node count":      patchI32(good, 8+12, int32(orig.Nodes()+1)),
		"right child early":    patchI32(good, rootRight, right-1),
		"right child late":     patchI32(good, rootRight, right+1),
		"right child is left":  patchI32(good, rootRight, 1),
		"right child past end": patchI32(good, rootRight, int32(orig.Nodes())),
		"negative radius":      patchF64(good, radius, -1),
		// NaN fails every ordered comparison, so range checks written as
		// "reject if v < 0" used to wave it through into the bound math.
		"NaN radius": patchF64(good, radius, math.NaN()),
		"Inf radius": patchF64(good, radius, math.Inf(1)),
		// Finite, but past any float32 data's norms: its cone grids would
		// overflow.
		"radius out of range": patchF64(good, radius, 0x1p300),
	}
	if kind == Ball {
		// The left link a Ball payload still carries must say "next node".
		cases["left child not next"] = patchI32(good, links+8, 2)
		cases["half-leaf"] = patchI32(good, links+8, noChild)
	}
	if kind == BC {
		// A leaf with at least three points, to corrupt its order past the head.
		var leaf *nodeRec
		for i := range orig.nodes {
			if n := &orig.nodes[i]; n.isLeaf() && n.count() >= 3 {
				leaf = n
				break
			}
		}
		p := int(leaf.start) + 1
		cases["NaN centerNorm"] = patchF64(good, radius+8, math.NaN())
		cases["internal node marked leaf"] = patchI32(good, rootRight, noChild)
		// vec.BallCutoff's binary search assumes the order: codes for the
		// farthest corner of the grids (xcos at C - R', xsin at its top)
		// derive a radius past the leaf's, after a point that derives less.
		grid := orig.sec().grid(leaf)
		if grid.SqRadius(0, math.MaxUint16) <= grid.SqRadius(orig.sec().xcos[p-1], orig.sec().xsin[p-1]) {
			t.Fatal("fixture: the corner codes do not derive the leaf's largest radius")
		}
		cases["derived radius ascending"] = patchU16(patchU16(good, xcos+2*p, 0), xsin+2*p, math.MaxUint16)
	}
	for name, payload := range cases {
		if _, err := Load(bytes.NewReader(payload), kind, 0); !errors.Is(err, binio.ErrCorrupt) {
			t.Fatalf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}

// TestLoadNamesRetiredVersions: the payloads earlier releases wrote (BC:
// float64 point-level arrays; then a centre for every node; then a stored r_x
// array; then a float32 cone pair; and either kind with the 8-bit leaf
// mirror) are refused by name, not mistaken for garbage and not converted.
func TestLoadNamesRetiredVersions(t *testing.T) {
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyUniform, RawDim: 5}, 80, 6)
	forKinds(t, func(t *testing.T, kind Kind) {
		var buf bytes.Buffer
		if err := Build(raw.AppendOnes(), kind, Config{LeafSize: 10, Seed: 7}).Save(&buf); err != nil {
			t.Fatal(err)
		}
		for old, version := range map[string]string{
			"P2HBC002": "version 2", "P2HBC003": "version 3", "P2HBC004": "version 4", "P2HBC005": "version 5",
			"P2HBC006": "version 6", "P2HBC007": "version 7", "P2HBC008": "version 8", "P2HBC009": "version 9",
			"P2HBC011": "version 11", "P2HBT003": "version 3",
		} {
			payload := append([]byte(old), buf.Bytes()[8:]...)
			_, err := Load(bytes.NewReader(payload), kind, 0)
			if !errors.Is(err, binio.ErrCorrupt) {
				t.Fatalf("%s: want ErrCorrupt, got %v", old, err)
			}
			for _, want := range []string{old, version, "P2HBT002/P2HBC010"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s: error %q does not mention %q", old, err, want)
				}
			}
		}
	})
	if !slices.Equal(PayloadMagics(), []string{"P2HBT002", "P2HBC010"}) {
		t.Fatalf("PayloadMagics() = %v", PayloadMagics())
	}
}

// TestPayloadBytesIsExact: the closed form embedding formats write as the
// length prefix is the size Save produces, for every kind.
func TestPayloadBytesIsExact(t *testing.T) {
	forKinds(t, func(t *testing.T, kind Kind) {
		data, _ := buildTestData(t, dataset.FamilyHeavyTail, 333, 9, 2)
		tree := Build(data, kind, Config{LeafSize: 7, Seed: 1})
		var buf bytes.Buffer
		if err := tree.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if got := tree.PayloadBytes(); got != int64(buf.Len()) {
			t.Fatalf("PayloadBytes() = %d, Save wrote %d", got, buf.Len())
		}
	})
}

// TestLoadChecksIDsAgainstTheHoldersBound: a labelled tree round-trips only
// under a bound that covers its labels; standalone (bound 0, the tree's own
// n) the same payload is corrupt.
func TestLoadChecksIDsAgainstTheHoldersBound(t *testing.T) {
	data, _ := buildTestData(t, dataset.FamilyUniform, 200, 6, 41)
	labels := make([]int32, data.N)
	for i := range labels {
		labels[i] = int32(1000 - i)
	}
	var buf bytes.Buffer
	if err := BuildOwned(data, labels, BC, Config{LeafSize: 16, Seed: 1}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	for bound, ok := range map[int]bool{0: false, 1000: false, 1001: true} {
		_, err := Load(bytes.NewReader(buf.Bytes()), BC, bound)
		if (err == nil) != ok || (!ok && !errors.Is(err, binio.ErrCorrupt)) {
			t.Fatalf("bound %d: err = %v, want success = %v and ErrCorrupt otherwise", bound, err, ok)
		}
	}
}

// mappedTwin saves tree and loads it back in place from the saved bytes, which
// stand in for a mapped container: every section of the twin is a view of
// them, and they are its backing.
func mappedTwin(t *testing.T, tree *Tree) *Tree {
	t.Helper()
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	twin, err := Load(binio.NewBytesReader(b, &b), tree.kind, 0)
	if err != nil {
		t.Fatal(err)
	}
	if twin.sec().backing == nil {
		t.Fatal("the in-place load viewed no section")
	}
	return twin
}

// flipByte flips one bit in the middle of a section's bytes.
func flipByte[T float32 | int32 | uint16](s []T) {
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
	b[len(b)/2] ^= 0x10
}

// TestAdoptRefusesWhatDiffers: a tree refuses a twin that is not mapped, is of
// the other kind, or differs from it in one node record or in one byte of any
// section — and keeps its own sections, answering bit for bit as before: the
// matrix's cells, and the budgeted answers and counters it gave before.
func TestAdoptRefusesWhatDiffers(t *testing.T) {
	set := &setsNamed("clustered")[0]
	shapes := []matrixShape{{opts: core.SearchOptions{K: 5}}, {opts: core.SearchOptions{K: 5, Budget: 60}}}
	forKinds(t, func(t *testing.T, kind Kind) {
		r := buildRow(t, matrixRow{kind.String(), kind, false}, set)
		tree := r.tree
		answers := func() []any {
			res, stats := searchEach(tree, set.queries, shapes[1].opts)
			return []any{res, stats}
		}
		want := answers()
		other := Ball
		if kind == Ball {
			other = BC
		}
		cases := map[string]func() *Tree{
			"not mapped": func() *Tree {
				var buf bytes.Buffer
				if err := tree.Save(&buf); err != nil {
					t.Fatal(err)
				}
				m, err := Load(bytes.NewReader(buf.Bytes()), kind, 0)
				if err != nil {
					t.Fatal(err)
				}
				return m
			},
			"kind": func() *Tree {
				return mappedTwin(t, Build(set.data, other, Config{LeafSize: set.leafSize, Seed: set.seed}))
			},
			"node record": func() *Tree {
				m := mappedTwin(t, tree)
				r := &m.nodes[len(m.nodes)/2].radius
				*r = math.Nextafter(*r, math.Inf(1))
				return m
			},
			"points": func() *Tree { m := mappedTwin(t, tree); flipByte(m.sec().points.Data); return m },
			"ids":    func() *Tree { m := mappedTwin(t, tree); flipByte(m.sec().ids); return m },
			"centers": func() *Tree {
				m := mappedTwin(t, tree)
				flipByte(m.sec().centers.Data)
				return m
			},
		}
		if kind == BC {
			cases["xcos"] = func() *Tree { m := mappedTwin(t, tree); flipByte(m.sec().xcos); return m }
			cases["xsin"] = func() *Tree { m := mappedTwin(t, tree); flipByte(m.sec().xsin); return m }
		}
		own := tree.sec()
		for name, twin := range cases {
			if tree.Adopt(twin()) {
				t.Fatalf("%s: adopted a twin that differs", name)
			}
			if tree.sec() != own {
				t.Fatalf("%s: refused, yet swapped its sections", name)
			}
			for _, sh := range shapes {
				checkCell(t, r, sh)
			}
			if got := answers(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: the tree answers differently after refusing", name)
			}
		}
	})
}
