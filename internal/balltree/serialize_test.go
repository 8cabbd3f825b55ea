package balltree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"p2h/internal/binio"
	"p2h/internal/dataset"
	"p2h/internal/vec"
)

func TestSaveLoadRoundTrip(t *testing.T) { forKinds(t, testSaveLoadRoundTrip) }

func testSaveLoadRoundTrip(t *testing.T, kind Kind) {
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 14, Clusters: 6}, 700, 1)
	data := raw.AppendOnes()
	queries := dataset.GenerateQueries(raw, 10, 2)
	orig := Build(data, kind, Config{LeafSize: 30, Seed: 3})

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, kind, 0)
	if err != nil {
		t.Fatal(err)
	}
	if restored.N() != orig.N() || restored.Dim() != orig.Dim() || restored.kind != kind ||
		restored.Nodes() != orig.Nodes() || restored.Leaves() != orig.Leaves() ||
		restored.LeafSize() != orig.LeafSize() {
		t.Fatalf("metadata mismatch: %s vs %s", restored, orig)
	}
	checkTreeInvariants(t, restored)
	// Restored trees must search identically, including pruning stats, and
	// across ablation variants (the leaf arrays must survive the trip).
	for i := 0; i < queries.N; i++ {
		q := queries.Row(i)
		for _, variant := range allVariants() {
			variant.K = 7
			a, sa := orig.Search(q, variant)
			b, sb := restored.Search(q, variant)
			requireSameResults(t, "restored", b, a)
			if sa != sb {
				t.Fatalf("query %d: stats differ: %+v != %+v", i, sa, sb)
			}
		}
	}
}

// payloadOffsets locates sections of a saved unquantized payload so
// corruption tests can patch single values: the float64 node radius column
// (stride 8 for Ball, 16 with centerNorm for BC), the int32 link rows (start,
// end, left, right for Ball; start, end, right for BC) and, BC only, the
// float32 xcos/xsin arrays.
func payloadOffsets(t *Tree) (radius, links, xcos, xsin int) {
	n, d, nodes := t.N(), t.Dim(), t.Nodes()
	radius = 8 + 5*4 + 4*n + 4*n*d + 4*t.centers.N*d
	boundStride, linkStride := 8, 16
	if t.kind == BC {
		boundStride, linkStride = 16, 12
	}
	links = radius + nodes*boundStride
	xcos = links + nodes*linkStride
	return radius, links, xcos, xcos + 4*n
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

func patchF32(good []byte, off int, v float32) []byte {
	bad := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[off:], math.Float32bits(v))
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
		"other kind's magic": append([]byte(magics[1-kind][0]), good[8:]...),
		// The pointer-tree era's version 1 payloads are no longer read.
		"v1 magic":           append([]byte(magics[kind][0][:7]+"1"), good[8:]...),
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
		// The shape that broke exactness: radii [.., NaN, big] load, then
		// vec.BallCutoff's binary search skips the big-radius point. The radii
		// are derived now, so it is a cone value that carries the NaN in.
		nan32 := float32(math.NaN())
		far := float32(2*vec.PointRadius(leaf.centerNorm, orig.xcos[p-1], orig.xsin[p-1]) + 1)
		cases["NaN xcos mid-leaf"] = patchF32(good, xcos+4*p, nan32)
		cases["derived radius ascending"] = patchF32(good, xsin+4*p, far)
		cases["Inf xsin"] = patchF32(good, xsin+4*p, float32(math.Inf(-1)))
		cases["negative xsin"] = patchF32(good, xsin+4*p, -orig.xsin[p])
	}
	for name, payload := range cases {
		if _, err := Load(bytes.NewReader(payload), kind, 0); !errors.Is(err, binio.ErrCorrupt) {
			t.Fatalf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}

// TestLoadNamesRetiredVersions: the BC payloads earlier releases wrote (float64
// point-level arrays; then a centre for every node; then a stored r_x array)
// are refused by name, not mistaken for garbage and not converted.
func TestLoadNamesRetiredVersions(t *testing.T) {
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyUniform, RawDim: 5}, 80, 6)
	var buf bytes.Buffer
	if err := Build(raw.AppendOnes(), BC, Config{LeafSize: 10, Seed: 7}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	for old, version := range map[string]string{
		"P2HBC002": "version 2", "P2HBC003": "version 3", "P2HBC004": "version 4", "P2HBC005": "version 5",
		"P2HBC006": "version 6", "P2HBC007": "version 7",
	} {
		payload := append([]byte(old), buf.Bytes()[8:]...)
		_, err := Load(bytes.NewReader(payload), BC, 0)
		if !errors.Is(err, binio.ErrCorrupt) {
			t.Fatalf("%s: want ErrCorrupt, got %v", old, err)
		}
		for _, want := range []string{old, version, "P2HBC008/P2HBC009"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", old, err, want)
			}
		}
	}
	if slices.Contains(PayloadMagics(), "P2HBC006") || len(PayloadMagics()) != 4 {
		t.Fatalf("PayloadMagics() = %v", PayloadMagics())
	}
}

// TestPayloadBytesIsExact: the closed form embedding formats write as the
// length prefix is the size Save produces, for every kind and with the
// quantization section.
func TestPayloadBytesIsExact(t *testing.T) {
	forKinds(t, func(t *testing.T, kind Kind) {
		for _, quantize := range []bool{false, true} {
			data, _ := buildTestData(t, dataset.FamilyHeavyTail, 333, 9, 2)
			tree := Build(data, kind, Config{LeafSize: 7, Seed: 1, Quantize: quantize})
			var buf bytes.Buffer
			if err := tree.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if got := tree.PayloadBytes(); got != int64(buf.Len()) {
				t.Fatalf("quantize=%v: PayloadBytes() = %d, Save wrote %d", quantize, got, buf.Len())
			}
		}
	})
}
