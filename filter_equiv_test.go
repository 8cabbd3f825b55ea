package p2h_test

// Byte-equality property tests for filtered search at the public API
// boundary: for every kind, every option shape and a selectivity sweep
// (including predicates matching nothing), a search with SearchOptions.Pred
// must return results bitwise identical to the same search with an
// equivalent post-filter closure. The tree kinds answer the Pred form with
// subtree pushdown, so this is the soundness gate for the per-node summary
// skipping; DESIGN.md's "Filtered search" section derives why equality holds
// down to the float bits.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	p2h "p2h"
)

// attrsFor deterministically assigns attribute payloads to n rows: tags at
// ~1%, ~10% and ~50% selectivity, a dense float field and a small int field,
// with a sprinkling of fully empty payloads to exercise the presence
// bitmaps.
func attrsFor(n int) []p2h.PointAttrs {
	points := make([]p2h.PointAttrs, n)
	for i := range points {
		if i%13 == 5 {
			continue // no tags, no fields
		}
		var tags []string
		if i%100 == 0 {
			tags = append(tags, "hot")
		}
		if i%10 == 0 {
			tags = append(tags, "warm")
		}
		if i%2 == 0 {
			tags = append(tags, "even")
		}
		points[i] = p2h.PointAttrs{
			Tags:   tags,
			Floats: map[string]float64{"score": float64(i%1000) / 1000},
			Ints:   map[string]int64{"cat": int64(i % 7)},
		}
	}
	return points
}

// equivPreds is the selectivity sweep: the label notes the approximate match
// fraction. The last two match nothing at all.
func equivPreds() []struct {
	name string
	pred *p2h.Pred
} {
	return []struct {
		name string
		pred *p2h.Pred
	}{
		{"tag1pct", p2h.TagIs("hot")},
		{"tag10pct", p2h.TagIs("warm")},
		{"tag50pct", p2h.TagIs("even")},
		{"range10pct", p2h.FieldBetween("score", 0, 0.099)},
		{"range50pct", p2h.FieldAtMost("score", 0.499)},
		{"intfield", p2h.FieldBetween("cat", 2, 3)},
		{"and", p2h.AllOf(p2h.TagIs("even"), p2h.FieldAtLeast("score", 0.5))},
		{"or", p2h.OneOf(p2h.TagIs("hot"), p2h.FieldBetween("score", 0.2, 0.25))},
		{"not", p2h.NotOf(p2h.TagIs("even"))},
		{"empty-tag", p2h.TagIs("absent")},
		{"empty-range", p2h.FieldBetween("score", 2, 3)},
	}
}

// postFilter is the reference implementation a Pred search must match byte
// for byte: evaluate the predicate per row, through a plain Filter closure.
func postFilter(pred *p2h.Pred, points []p2h.PointAttrs) p2h.SearchOptions {
	return p2h.SearchOptions{Filter: func(id int32) bool { return pred.Matches(points[id]) }}
}

func allKindSpecs() map[string]p2h.Spec {
	specs := map[string]p2h.Spec{}
	for _, kind := range []string{
		p2h.KindBallTree, p2h.KindBCTree, p2h.KindKDTree, p2h.KindSharded,
		p2h.KindDynamic, p2h.KindNH, p2h.KindFH, p2h.KindLinearScan,
		p2h.KindQuantizedScan,
	} {
		spec := p2h.Spec{Kind: kind, Seed: 7, LeafSize: 64}
		if kind == p2h.KindSharded {
			spec.Shards = 4
			spec.Workers = 1
		}
		specs[kind] = spec
	}
	return specs
}

// TestPredEquivalence sweeps kinds x predicates x option shapes through the
// single-query path.
func TestPredEquivalence(t *testing.T) {
	data := p2h.Dedup(p2h.GenerateDataset("Cifar-10", 1500, 11))
	queries := p2h.GenerateQueries(data, 15, 12)
	points := attrsFor(data.N)

	shapes := []struct {
		name string
		opts p2h.SearchOptions
	}{
		{"exact", p2h.SearchOptions{K: 10}},
		{"kBig", p2h.SearchOptions{K: data.N + 3}},
		{"budget", p2h.SearchOptions{K: 10, Budget: 120}},
	}
	for kind, spec := range allKindSpecs() {
		ix, err := p2h.New(data, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := p2h.AttachAttributes(ix, points); err != nil {
			t.Fatalf("%s: attach: %v", kind, err)
		}
		for _, pc := range equivPreds() {
			for _, shape := range shapes {
				t.Run(kind+"/"+pc.name+"/"+shape.name, func(t *testing.T) {
					for qi := 0; qi < queries.N; qi++ {
						q := queries.Row(qi)
						wantOpts := postFilter(pc.pred, points)
						wantOpts.K, wantOpts.Budget = shape.opts.K, shape.opts.Budget
						want, _ := ix.Search(q, wantOpts)
						gotOpts := shape.opts
						gotOpts.Pred = pc.pred
						got, _ := ix.Search(q, gotOpts)
						requireIdentical(t, pc.name, got, want)
					}
				})
			}
		}
	}
}

// TestPredEquivalenceQuantized repeats the sweep on the quantized leaf
// mirrors: the pred-aware code-select path must stay exact.
func TestPredEquivalenceQuantized(t *testing.T) {
	data := p2h.Dedup(p2h.GenerateDataset("Cifar-10", 1500, 21))
	queries := p2h.GenerateQueries(data, 15, 22)
	points := attrsFor(data.N)

	for _, kind := range []string{p2h.KindBallTree, p2h.KindBCTree, p2h.KindSharded} {
		spec := p2h.Spec{Kind: kind, Seed: 7, LeafSize: 64, Quantize: true}
		if kind == p2h.KindSharded {
			spec.Shards = 4
			spec.Workers = 1
		}
		ix, err := p2h.New(data, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := p2h.AttachAttributes(ix, points); err != nil {
			t.Fatal(err)
		}
		for _, pc := range equivPreds() {
			t.Run(kind+"/"+pc.name, func(t *testing.T) {
				for qi := 0; qi < queries.N; qi++ {
					q := queries.Row(qi)
					wantOpts := postFilter(pc.pred, points)
					wantOpts.K = 10
					want, _ := ix.Search(q, wantOpts)
					got, _ := ix.Search(q, p2h.SearchOptions{K: 10, Pred: pc.pred})
					requireIdentical(t, pc.name, got, want)
				}
			})
		}
	}
}

// TestPredEquivalenceBatched drives predicates through SearchBatch on every
// kind: batched answers must match per-query post-filtered answers.
func TestPredEquivalenceBatched(t *testing.T) {
	data := p2h.Dedup(p2h.GenerateDataset("Cifar-10", 1200, 31))
	queries := p2h.GenerateQueries(data, 20, 32)
	points := attrsFor(data.N)

	for kind, spec := range allKindSpecs() {
		ix, err := p2h.New(data, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := p2h.AttachAttributes(ix, points); err != nil {
			t.Fatal(err)
		}
		for _, pc := range equivPreds() {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/w%d", kind, pc.name, workers), func(t *testing.T) {
					got := p2h.SearchBatch(ix, queries, p2h.SearchOptions{K: 10, Pred: pc.pred}, workers)
					for qi := 0; qi < queries.N; qi++ {
						wantOpts := postFilter(pc.pred, points)
						wantOpts.K = 10
						want, _ := ix.Search(queries.Row(qi), wantOpts)
						requireIdentical(t, pc.name, got[qi], want)
					}
				})
			}
		}
	}
}

// TestPredWithUserFilter composes Pred with a caller Filter: the predicate
// applies first, then the closure, identically to one closure testing both.
func TestPredWithUserFilter(t *testing.T) {
	data := p2h.Dedup(p2h.GenerateDataset("Cifar-10", 800, 41))
	queries := p2h.GenerateQueries(data, 10, 42)
	points := attrsFor(data.N)
	pred := p2h.TagIs("warm")

	for kind, spec := range allKindSpecs() {
		ix, err := p2h.New(data, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := p2h.AttachAttributes(ix, points); err != nil {
			t.Fatal(err)
		}
		t.Run(kind, func(t *testing.T) {
			for qi := 0; qi < queries.N; qi++ {
				q := queries.Row(qi)
				want, _ := ix.Search(q, p2h.SearchOptions{K: 10, Filter: func(id int32) bool {
					return pred.Matches(points[id]) && id%3 == 0
				}})
				got, _ := ix.Search(q, p2h.SearchOptions{K: 10, Pred: pred, Filter: func(id int32) bool {
					return id%3 == 0
				}})
				requireIdentical(t, kind, got, want)
			}
		})
	}
}

// TestPredWithoutAttrs pins the no-store semantics: every payload reads as
// empty, so a predicate the empty payload satisfies keeps all results and
// one it fails returns none — on every kind, without a search panic.
func TestPredWithoutAttrs(t *testing.T) {
	data := p2h.Dedup(p2h.GenerateDataset("Cifar-10", 600, 51))
	q := p2h.GenerateQueries(data, 1, 52).Row(0)

	for kind, spec := range allKindSpecs() {
		ix, err := p2h.New(data, spec)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(kind, func(t *testing.T) {
			plain, _ := ix.Search(q, p2h.SearchOptions{K: 10})
			all, _ := ix.Search(q, p2h.SearchOptions{K: 10, Pred: p2h.NotOf(p2h.TagIs("x"))})
			requireIdentical(t, "matches-empty", all, plain)
			none, _ := ix.Search(q, p2h.SearchOptions{K: 10, Pred: p2h.TagIs("x")})
			if len(none) != 0 {
				t.Fatalf("predicate over no attributes returned %d results", len(none))
			}
		})
	}
}

// TestPredPushdownSkips proves the tentpole is actually engaged: a selective
// predicate on a tree kind must skip whole subtrees, visible in the Stats
// counters.
func TestPredPushdownSkips(t *testing.T) {
	data := p2h.Dedup(p2h.GenerateDataset("Cifar-10", 4000, 61))
	q := p2h.GenerateQueries(data, 1, 62).Row(0)
	points := attrsFor(data.N)

	for _, kind := range []string{p2h.KindBallTree, p2h.KindBCTree, p2h.KindSharded} {
		spec := p2h.Spec{Kind: kind, Seed: 7, LeafSize: 32}
		if kind == p2h.KindSharded {
			spec.Shards = 4
			spec.Workers = 1
		}
		ix, err := p2h.New(data, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := p2h.AttachAttributes(ix, points); err != nil {
			t.Fatal(err)
		}
		_, st := ix.Search(q, p2h.SearchOptions{K: 10, Pred: p2h.TagIs("hot")})
		if st.FilterSkippedNodes == 0 || st.FilterSkippedPoints == 0 {
			t.Fatalf("%s: 1%% predicate skipped no subtrees (nodes=%d points=%d)",
				kind, st.FilterSkippedNodes, st.FilterSkippedPoints)
		}
	}
}

// TestAttributedContainerRoundTrip saves every persistable kind with
// attributes attached and checks the restored index answers predicate
// queries identically, and that Inspect reports the schema.
func TestAttributedContainerRoundTrip(t *testing.T) {
	data := p2h.Dedup(p2h.GenerateDataset("Cifar-10", 700, 71))
	queries := p2h.GenerateQueries(data, 5, 72)
	points := attrsFor(data.N)
	pred := p2h.OneOf(p2h.TagIs("warm"), p2h.FieldAtMost("score", 0.2))

	for kind, spec := range allKindSpecs() {
		if ok, _, _ := p2h.KindIsPersistable(kind); !ok {
			continue
		}
		t.Run(kind, func(t *testing.T) {
			ix, err := p2h.New(data, spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := p2h.AttachAttributes(ix, points); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := p2h.Save(&buf, ix); err != nil {
				t.Fatal(err)
			}

			info, err := p2h.Inspect(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !info.HasAttrs {
				t.Fatal("Inspect did not report the attribute section")
			}
			if got := strings.Join(info.AttrTags, ","); got != "even,hot,warm" {
				t.Fatalf("Inspect tags = %q", got)
			}
			if got := strings.Join(info.AttrFields, ","); got != "cat:int,score:float" {
				t.Fatalf("Inspect fields = %q", got)
			}

			back, err := p2h.Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for qi := 0; qi < queries.N; qi++ {
				q := queries.Row(qi)
				want, _ := ix.Search(q, p2h.SearchOptions{K: 10, Pred: pred})
				got, _ := back.Search(q, p2h.SearchOptions{K: 10, Pred: pred})
				requireIdentical(t, kind, got, want)
			}
		})
	}
}

// TestUnattributedSaveUnchanged pins backward compatibility: an index with
// no attributes saves in the v1 container format, byte-identical to what
// earlier releases wrote and read.
func TestUnattributedSaveUnchanged(t *testing.T) {
	data := p2h.Dedup(p2h.GenerateDataset("Cifar-10", 300, 81))
	ix, err := p2h.New(data, p2h.Spec{Kind: p2h.KindBCTree, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p2h.Save(&buf, ix); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("P2HIX001")) {
		t.Fatalf("unattributed save begins %q, want the v1 magic", buf.Bytes()[:8])
	}
	// Attach, then detach: the save must return to v1 bytes exactly.
	if err := p2h.AttachAttributes(ix, attrsFor(data.N)); err != nil {
		t.Fatal(err)
	}
	var attributed bytes.Buffer
	if err := p2h.Save(&attributed, ix); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(attributed.Bytes(), []byte("P2HIX002")) {
		t.Fatalf("attributed save begins %q, want the v2 magic", attributed.Bytes()[:8])
	}
	if err := p2h.AttachAttributes(ix, nil); err != nil {
		t.Fatal(err)
	}
	var detached bytes.Buffer
	if err := p2h.Save(&detached, ix); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(detached.Bytes(), buf.Bytes()) {
		t.Fatal("save after detaching attributes is not byte-identical to the original")
	}
}

// TestDynamicInsertWithAttrs covers the mutable path: payloads attached per
// insert, surviving rebuilds and deletes, with Pred searches tracking them.
func TestDynamicInsertWithAttrs(t *testing.T) {
	data := p2h.Dedup(p2h.GenerateDataset("Cifar-10", 900, 91))
	q := p2h.GenerateQueries(data, 1, 92).Row(0)

	ix := p2h.MustBuild(t, nil, p2h.Spec{Kind: p2h.KindDynamic, Dim: data.D, Seed: 7}).(*p2h.Dynamic)
	points := attrsFor(data.N)
	for i := 0; i < data.N; i++ {
		if h := ix.InsertWithAttrs(data.Row(i), points[i]); h != int32(i) {
			t.Fatalf("insert %d returned handle %d", i, h)
		}
	}
	for i := 0; i < data.N; i += 17 {
		ix.Delete(int32(i))
	}
	pred := p2h.TagIs("warm")
	want, _ := ix.Search(q, p2h.SearchOptions{K: 10, Filter: func(id int32) bool {
		return pred.Matches(points[id])
	}})
	got, _ := ix.Search(q, p2h.SearchOptions{K: 10, Pred: pred})
	requireIdentical(t, "dynamic", got, want)

	// The attribute column must survive a container round-trip.
	var buf bytes.Buffer
	if err := p2h.Save(&buf, ix); err != nil {
		t.Fatal(err)
	}
	back, err := p2h.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got2, _ := back.Search(q, p2h.SearchOptions{K: 10, Pred: pred})
	requireIdentical(t, "dynamic-roundtrip", got2, want)
}
