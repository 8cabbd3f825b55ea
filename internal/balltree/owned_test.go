package balltree

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"p2h/internal/attr"
	"p2h/internal/binio"
	"p2h/internal/core"
	"p2h/internal/dataset"
)

// TestBuildOwnedIsBuild: handing the builder a private matrix and no labels
// gives the tree Build gives — the same bytes on every surrogate of Table II,
// both kinds — and Build leaves its argument alone.
func TestBuildOwnedIsBuild(t *testing.T) {
	for _, spec := range dataset.Catalog() {
		data := dataset.Dedup(dataset.Generate(spec, 300, 5)).AppendOnes()
		shared := data.Clone()
		forKinds(t, func(t *testing.T, kind Kind) {
			cfg := Config{LeafSize: 16, Seed: 6}
			var built, owned bytes.Buffer
			if err := Build(data, kind, cfg).Save(&built); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(data.Data, shared.Data) {
				t.Fatalf("%s: Build reordered the matrix it was lent", spec.Name)
			}
			rows := data.Clone()
			tree := BuildOwned(rows, nil, kind, cfg)
			if err := tree.Save(&owned); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(built.Bytes(), owned.Bytes()) {
				t.Fatalf("%s: BuildOwned over a clone saves other bytes than Build", spec.Name)
			}
			if points, _ := tree.Rows(); &points.Data[0] != &rows.Data[0] || len(points.Data) != len(rows.Data) {
				t.Fatalf("%s: BuildOwned made a second matrix", spec.Name)
			}
		})
	}
}

// TestLabelsAreTheTreesIDs builds the same tree with and without labels — a
// random injective map into a wider id space — and checks that the labelled
// one is the other with its ids mapped: in Rows, where row p is the vector
// handed in under the label ids[p], and in what Search and SearchBatch report,
// filter by and evaluate predicates on.
func TestLabelsAreTheTreesIDs(t *testing.T) {
	forKinds(t, func(t *testing.T, kind Kind) {
		data, queries := buildTestData(t, dataset.FamilyClustered, 900, 12, 31)
		rng := rand.New(rand.NewSource(32))
		labels := make([]int32, data.N)
		for i, v := range rng.Perm(3 * data.N)[:data.N] {
			labels[i] = int32(v)
		}
		cfg := Config{LeafSize: 20, Seed: 33}
		plain := Build(data, kind, cfg)
		labelled := BuildOwned(data.Clone(), labels, kind, cfg)

		points, ids := labelled.Rows()
		_, rows := plain.Rows()
		for p, id := range ids {
			if id != labels[rows[p]] || !slices.Equal(points.Row(p), data.Row(int(rows[p]))) {
				t.Fatalf("position %d: label %d, want the label %d of row %d and its vector", p, id, labels[rows[p]], rows[p])
			}
		}

		mapped := func(res []core.Result) []core.Result {
			out := slices.Clone(res)
			for i := range out {
				out[i].ID = labels[out[i].ID]
			}
			core.SortResults(out) // ties, if any, order by the id reported
			return out
		}
		keep := func(id int32) bool { return id%3 != 0 }
		// One payload per label: the plain tree's store is indexed by row,
		// the labelled tree's by label.
		byRow, byLabel := make([]attr.Point, data.N), make([]attr.Point, 3*data.N)
		for row, label := range labels {
			byRow[row] = attr.Point{Ints: map[string]int64{"label": int64(label)}}
			byLabel[label] = byRow[row]
		}
		for _, at := range []struct {
			tree   *Tree
			points []attr.Point
		}{{plain, byRow}, {labelled, byLabel}} {
			store, err := attr.Build(at.points)
			if err != nil {
				t.Fatal(err)
			}
			if err := at.tree.AttachAttrs(store); err != nil {
				t.Fatal(err)
			}
		}
		pred := attr.FieldAtMost("label", float64(3*data.N/2))
		for _, tc := range []struct {
			name           string
			plain, labeled core.SearchOptions
		}{
			{"exact", core.SearchOptions{K: 7}, core.SearchOptions{K: 7}},
			{"budget", core.SearchOptions{K: 7, Budget: 150}, core.SearchOptions{K: 7, Budget: 150}},
			{"filter", core.SearchOptions{K: 7, Filter: func(row int32) bool { return keep(labels[row]) }},
				core.SearchOptions{K: 7, Filter: keep}},
			{"pred", core.SearchOptions{K: 7, Pred: pred}, core.SearchOptions{K: 7, Pred: pred}},
		} {
			wantBatch, _ := plain.SearchBatch(queries, tc.plain)
			gotBatch, _ := labelled.SearchBatch(queries, tc.labeled)
			for qi := 0; qi < queries.N; qi++ {
				want, wantSt := plain.Search(queries.Row(qi), tc.plain)
				got, gotSt := labelled.Search(queries.Row(qi), tc.labeled)
				if !slices.Equal(got, mapped(want)) || gotSt != wantSt {
					t.Fatalf("%s query %d: labelled Search %v (%+v), unlabelled mapped %v (%+v)", tc.name, qi, got, gotSt, mapped(want), wantSt)
				}
				if !slices.Equal(gotBatch[qi], mapped(wantBatch[qi])) {
					t.Fatalf("%s query %d: labelled SearchBatch %v, unlabelled mapped %v", tc.name, qi, gotBatch[qi], mapped(wantBatch[qi]))
				}
			}
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
