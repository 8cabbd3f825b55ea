package p2h_test

// Attributes at the public API boundary: predicates without a store, the
// pushdown's skip counters, and attributed containers. That a Pred search is
// bitwise the linear scan filtered by Pred.Matches — the soundness gate for
// the per-node summaries — is the oracle matrix's (oracle_test.go);
// DESIGN.md's "Filtered search" section derives why equality holds down to
// the float bits.

import (
	"bytes"
	"strings"
	"testing"

	p2h "p2h"
)

// TestPredWithoutAttrs pins the no-store semantics: every payload reads as
// empty, so a predicate the empty payload satisfies keeps all results and
// one it fails returns none — on every kind, without a search panic.
func TestPredWithoutAttrs(t *testing.T) {
	data := p2h.Dedup(p2h.GenerateDataset("Cifar-10", 600, 51))
	q := p2h.GenerateQueries(data, 1, 52).Row(0)

	for _, row := range oracleKinds {
		ix := p2h.MustBuild(t, data, row.spec)
		t.Run(row.name, func(t *testing.T) {
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

// TestPredPushdownSkips proves the pushdown is actually engaged: a selective
// predicate on a tree kind — a dynamic index's snapshot tree included — must
// skip whole subtrees, visible in the Stats counters.
func TestPredPushdownSkips(t *testing.T) {
	data := p2h.Dedup(p2h.GenerateDataset("Cifar-10", 4000, 61))
	q := p2h.GenerateQueries(data, 1, 62).Row(0)
	points := attrsFor(data.N)

	for _, kind := range []string{p2h.KindBallTree, p2h.KindBCTree, p2h.KindSharded, p2h.KindDynamic} {
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

	for _, row := range oracleKinds {
		if ok, _, _ := p2h.KindIsPersistable(row.spec.Kind); !ok {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			ix := p2h.MustBuild(t, data, row.spec)
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
				requireIdentical(t, row.name, got, want)
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

// TestDynamicPredOnNamesAfterCompaction: inserts after the last compaction
// bring a tag and an int field the store never held when the snapshot tree's
// summaries were built. Predicates on those names, plain and negated, answer
// exactly what the payloads say, and one the tree cannot match skips it whole.
func TestDynamicPredOnNamesAfterCompaction(t *testing.T) {
	data := p2h.Dedup(p2h.GenerateDataset("Cifar-10", 1000, 93))
	q := p2h.GenerateQueries(data, 1, 94).Row(0)
	bulk := 900
	head := &p2h.Matrix{Data: data.Data[:bulk*data.D], N: bulk, D: data.D}
	ix := p2h.MustBuild(t, head, p2h.Spec{Kind: p2h.KindDynamic, Seed: 7, LeafSize: 32}).(*p2h.Dynamic)
	points := attrsFor(data.N)
	if err := p2h.AttachAttributes(ix, points[:bulk]); err != nil {
		t.Fatal(err)
	}
	for i := bulk; i < data.N; i++ {
		if i%3 == 0 {
			points[i].Tags = append(points[i].Tags, "fresh")
		}
		if i%4 != 0 {
			points[i].Ints = map[string]int64{"cat": int64(i % 7), "year": int64(1900 + i%150)}
		}
		ix.InsertWithAttrs(data.Row(i), points[i])
	}
	if ix.Pending() != data.N-bulk {
		t.Fatalf("a compaction ran: %d pending, want the %d inserts", ix.Pending(), data.N-bulk)
	}
	for _, pred := range []*p2h.Pred{
		p2h.TagIs("fresh"),
		p2h.NotOf(p2h.TagIs("fresh")),
		p2h.FieldAtLeast("year", 2000),
		p2h.NotOf(p2h.FieldBetween("year", 1950, 2020)),
		p2h.OneOf(p2h.TagIs("hot"), p2h.TagIs("fresh")),
		p2h.AllOf(p2h.TagIs("even"), p2h.NotOf(p2h.FieldAtMost("year", 1990))),
	} {
		want, _ := ix.Search(q, p2h.SearchOptions{K: 10, Filter: func(id int32) bool {
			return pred.Matches(points[id])
		}})
		got, st := ix.Search(q, p2h.SearchOptions{K: 10, Pred: pred})
		requireIdentical(t, pred.Canon(), got, want)
		if pred.Tag == "fresh" && st.FilterSkippedPoints < int64(bulk) {
			t.Errorf("%s skipped %d points, want the whole tree of %d", pred.Canon(), st.FilterSkippedPoints, bulk)
		}
	}
}

// TestDynamicAppendedPayloadsSaveAsAttached: a dynamic index that got its
// payloads insert by insert saves the bytes of its twin that got the same
// payloads at once from AttachAttributes — the store's first-seen names
// (here out of sorted order) are written in the canonical form.
func TestDynamicAppendedPayloadsSaveAsAttached(t *testing.T) {
	data := p2h.Dedup(p2h.GenerateDataset("Cifar-10", 400, 95))
	points := attrsFor(data.N)
	points[0] = p2h.PointAttrs{}
	points[1] = p2h.PointAttrs{Tags: []string{"zeta", "alpha"}, Floats: map[string]float64{"z": 1}}
	spec := p2h.Spec{Kind: p2h.KindDynamic, Dim: data.D, Seed: 7, LeafSize: 32}
	inserted := p2h.MustBuild(t, nil, spec).(*p2h.Dynamic)
	attached := p2h.MustBuild(t, nil, spec).(*p2h.Dynamic)
	for i := 0; i < data.N; i++ {
		inserted.InsertWithAttrs(data.Row(i), points[i])
		attached.Insert(data.Row(i))
	}
	if err := p2h.AttachAttributes(attached, points); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := p2h.Save(&a, inserted); err != nil {
		t.Fatal(err)
	}
	if err := p2h.Save(&b, attached); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("payloads inserted one by one save other bytes than the same payloads attached")
	}
}
