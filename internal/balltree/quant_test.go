package balltree

import (
	"bytes"
	"testing"

	"p2h/internal/core"
	"p2h/internal/dataset"
	"p2h/internal/vec"
)

// acceptAll is a Filter that rejects nothing: the leaf pipeline's Filter
// stage keeps whole prefixes, verified in one block, and a quantized tree
// scans in float (see Searcher.begin).
func acceptAll(int32) bool { return true }

func quantPair(t *testing.T, kind Kind, n, nq int, seed int64) (plain, quantized *Tree, queries *vec.Matrix) {
	t.Helper()
	raw := dataset.Dedup(dataset.Generate(dataset.Spec{
		Name: "t", Family: dataset.FamilyClustered, RawDim: 24, Clusters: 8,
	}, n, seed))
	queries = dataset.GenerateQueries(raw, nq, seed+1)
	normalizeRows(queries)
	data := raw.AppendOnes()
	plain = Build(data, kind, Config{LeafSize: 32, Seed: seed})
	quantized = Build(data, kind, Config{LeafSize: 32, Seed: seed, Quantize: true})
	return plain, quantized, queries
}

// TestQuantSearchMatchesFloat: a quantized tree must return
// bitwise-identical results to the same tree without the mirror, across every
// option shape — the code filter composes with the ball and cone bounds and
// may only remove work, never answers.
func TestQuantSearchMatchesFloat(t *testing.T) { forKinds(t, testQuantSearchMatchesFloat) }

func testQuantSearchMatchesFloat(t *testing.T, kind Kind) {
	plain, quantized, queries := quantPair(t, kind, 1500, 40, 31+10*int64(kind))
	for _, tc := range []struct {
		name string
		opts core.SearchOptions
	}{
		{"exact-k1", core.SearchOptions{K: 1}},
		{"exact-k10", core.SearchOptions{K: 10}},
		{"exact-kBig", core.SearchOptions{K: plain.N() + 5}}, // k > n: heap never fills
		{"budget", core.SearchOptions{K: 10, Budget: 100}},
		{"filtered", core.SearchOptions{K: 10, Filter: func(id int32) bool { return id%3 != 0 }}},
		{"lowerbound-pref", core.SearchOptions{K: 10, Preference: core.PrefLowerBound}},
		{"no-point-ball", core.SearchOptions{K: 10, DisablePointBall: true}},
		{"no-point-cone", core.SearchOptions{K: 10, DisablePointCone: true}},
		{"no-point-bounds", core.SearchOptions{K: 10, DisablePointBall: true, DisablePointCone: true}},
		{"ablated", core.SearchOptions{K: 10, Filter: acceptAll}}, // the float leaf scan
	} {
		t.Run(tc.name, func(t *testing.T) {
			for qi := 0; qi < queries.N; qi++ {
				q := queries.Row(qi)
				want, _ := plain.Search(q, tc.opts)
				got, _ := quantized.Search(q, tc.opts)
				requireSameResults(t, tc.name, got, want)
			}
		})
	}
}

// TestQuantBatchMatchesSequential: the batched quantized traversal must match
// per-query quantized search result-for-result.
func TestQuantBatchMatchesSequential(t *testing.T) { forKinds(t, testQuantBatchMatchesSequential) }

func testQuantBatchMatchesSequential(t *testing.T, kind Kind) {
	_, quantized, queries := quantPair(t, kind, 1500, 40, 33+10*int64(kind))
	for _, tc := range []struct {
		name string
		opts core.SearchOptions
	}{
		{"exact-k1", core.SearchOptions{K: 1}},
		{"exact-k10", core.SearchOptions{K: 10}},
		{"exact-kBig", core.SearchOptions{K: quantized.N() + 5}},
		{"no-point-ball", core.SearchOptions{K: 10, DisablePointBall: true}},
		{"ablated", core.SearchOptions{K: 10, Filter: acceptAll}}, // the float leaf scan
	} {
		t.Run(tc.name, func(t *testing.T) {
			batch, _ := quantized.SearchBatch(queries, tc.opts)
			for qi := 0; qi < queries.N; qi++ {
				want, _ := quantized.Search(queries.Row(qi), tc.opts)
				requireSameResults(t, tc.name, batch[qi], want)
			}
		})
	}
}

// TestQuantFilterActuallyPrunes guards against the filter silently degrading
// to a no-op: even after the ball and cone bounds (BC kind) have done their
// work, the quantized exact search must verify strictly fewer candidates than
// the float scan on clustered data.
func TestQuantFilterActuallyPrunes(t *testing.T) { forKinds(t, testQuantFilterActuallyPrunes) }

func testQuantFilterActuallyPrunes(t *testing.T, kind Kind) {
	plain, quantized, queries := quantPair(t, kind, 3000, 20, 35+10*int64(kind))
	var floatCand, quantCand int64
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		_, sf := plain.Search(q, core.SearchOptions{K: 10})
		_, sq := quantized.Search(q, core.SearchOptions{K: 10})
		floatCand += sf.Candidates
		quantCand += sq.Candidates
	}
	if quantCand >= floatCand {
		t.Fatalf("quantized path verified %d candidates, float path %d — no savings", quantCand, floatCand)
	}
}

// TestQuantSaveLoadRoundTrip: the v3 format round-trips the mirror, restored
// trees answer identically (results and stats), and the quantization section
// is validated — a tampered code byte must fail the load rather than load a
// mirror that could silently prune true neighbors.
func TestQuantSaveLoadRoundTrip(t *testing.T) { forKinds(t, testQuantSaveLoadRoundTrip) }

func testQuantSaveLoadRoundTrip(t *testing.T, kind Kind) {
	_, quantized, queries := quantPair(t, kind, 900, 10, 37+10*int64(kind))
	var buf bytes.Buffer
	if err := quantized.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	restored, err := Load(bytes.NewReader(raw), kind, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Quantized() {
		t.Fatal("restored tree lost its quantized mirror")
	}
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		a, sa := quantized.Search(q, core.SearchOptions{K: 7})
		b, sb := restored.Search(q, core.SearchOptions{K: 7})
		requireSameResults(t, "restored", b, a)
		if sa != sb {
			t.Fatalf("query %d: stats differ: %+v != %+v", qi, sa, sb)
		}
	}

	// Tamper with one code byte near the end of the stream (the code mirror
	// is the final section): Load must reject it.
	tampered := append([]byte(nil), raw...)
	tampered[len(tampered)-10] ^= 0x80
	if _, err := Load(bytes.NewReader(tampered), kind, 0); err == nil {
		t.Fatal("tampered quantization section must fail to load")
	}

	// Truncating the quantization section must fail too.
	if _, err := Load(bytes.NewReader(raw[:len(raw)-5]), kind, 0); err == nil {
		t.Fatal("truncated quantization section must fail to load")
	}
}
