package balltree

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"p2h/internal/binio"
	"p2h/internal/core"
	"p2h/internal/vec"
)

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

// adoptAnswers is every query's exact and budgeted answer and counters, one at
// a time and as one batch.
func adoptAnswers(tree *Tree, queries *vec.Matrix) []any {
	var out []any
	for _, opts := range []core.SearchOptions{{K: 5}, {K: 5, Budget: 60}} {
		for qi := 0; qi < queries.N; qi++ {
			res, st := tree.Search(queries.Row(qi), opts)
			out = append(out, res, st)
		}
		res, stats := tree.SearchBatch(queries, opts)
		out = append(out, res, stats)
	}
	return out
}

// flipByte flips one bit in the middle of a section's bytes.
func flipByte[T float32 | int32 | uint16](s []T) {
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
	b[len(b)/2] ^= 0x10
}

// TestAdoptServesTheMappedSections: a tree adopts the sections of its mapped
// twin — from then on it reads the twin's views — and answers, counts and
// sizes itself exactly as before, plain or quantized.
func TestAdoptServesTheMappedSections(t *testing.T) {
	forKinds(t, func(t *testing.T, kind Kind) {
		for _, quantize := range []bool{false, true} {
			tree, queries := batchSetup(t, kind, 900, 9, 4)
			if quantize {
				tree = Build(&tree.sec().points, kind, Config{LeafSize: 32, Seed: 4, Quantize: true})
			}
			want, size := adoptAnswers(tree, queries), tree.IndexBytes()
			twin := mappedTwin(t, tree)
			if !tree.Adopt(twin) {
				t.Fatalf("quantize=%v: the tree refused its own mapped twin", quantize)
			}
			if tree.sec() != twin.sec() {
				t.Fatalf("quantize=%v: Adopt reported success and kept its own sections", quantize)
			}
			if got := adoptAnswers(tree, queries); !reflect.DeepEqual(got, want) {
				t.Fatalf("quantize=%v: the adopted tree answers differently", quantize)
			}
			if got := tree.IndexBytes(); got != size {
				t.Fatalf("quantize=%v: IndexBytes %d after adopting, %d before", quantize, got, size)
			}
		}
	})
}

// TestAdoptRefusesWhatDiffers: a tree refuses a twin that is not mapped, is of
// the other kind, or differs from it in one node record or in one byte of any
// section — and keeps its own sections, answering bit for bit as before.
func TestAdoptRefusesWhatDiffers(t *testing.T) {
	forKinds(t, func(t *testing.T, kind Kind) {
		tree, queries := batchSetup(t, kind, 900, 9, 5)
		want := adoptAnswers(tree, queries)
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
				return mappedTwin(t, Build(&tree.sec().points, other, Config{LeafSize: 32, Seed: 5}))
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
			if got := adoptAnswers(tree, queries); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: the tree answers differently after refusing", name)
			}
		}
	})
}
