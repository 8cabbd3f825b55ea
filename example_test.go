package p2h_test

// Runnable godoc examples: `go test` executes each one and checks its
// output, so every snippet documented here is guaranteed to compile and
// behave as shown. Example_quickstart is the README quickstart.

import (
	"bytes"
	"fmt"

	p2h "p2h"
)

// A query is the hyperplane's normal with the offset appended; Hyperplane
// just assembles the two (normalization happens inside the indexes).
func ExampleHyperplane() {
	q := p2h.Hyperplane([]float32{0.6, 0.8}, -2)
	fmt.Println(q)
	// Output: [0.6 0.8 -2]
}

// Distance computes the paper's Equation 1 directly; unlike index queries
// it accepts non-unit normals.
func ExampleDistance() {
	p := []float32{1, 1}
	q := p2h.Hyperplane([]float32{3, 4}, -2) // |3*1 + 4*1 - 2| / ||(3,4)|| = 5/5
	fmt.Println(p2h.Distance(p, q))
	// Output: 1
}

// SearchBatch answers many hyperplane queries concurrently on any index,
// returning results in query order.
func ExampleSearchBatch() {
	data := p2h.FromRows([][]float32{{0}, {1}, {2}, {3}})
	index, err := p2h.New(data, p2h.Spec{Kind: p2h.KindBCTree})
	if err != nil {
		panic(err)
	}
	queries := p2h.FromRows([][]float32{
		{1, -0.4}, // hyperplane x = 0.4: nearest point is 0
		{1, -2.9}, // hyperplane x = 2.9: nearest point is 3
	})
	batch := p2h.SearchBatch(index, queries, p2h.SearchOptions{K: 1}, 2)
	fmt.Println(batch[0][0].ID, batch[1][0].ID)
	// Output: 0 3
}

// Server wraps any index behind a thread-safe set of worker slots with a
// result cache; Search runs on the calling goroutine once a slot is free.
func ExampleServer() {
	data := p2h.FromRows([][]float32{{0, 0}, {1, 0}, {2, 0}, {3, 0}})
	index, err := p2h.New(data, p2h.Spec{Kind: p2h.KindBCTree})
	if err != nil {
		panic(err)
	}
	srv := p2h.NewServer(index, p2h.ServerOptions{Workers: 2})
	defer srv.Close()

	q := p2h.Hyperplane([]float32{1, 0}, -2.2) // hyperplane x = 2.2
	results, _ := srv.Search(q, p2h.SearchOptions{K: 2})
	for _, r := range results {
		fmt.Printf("point %d at distance %.1f\n", r.ID, r.Dist)
	}
	// Output:
	// point 2 at distance 0.2
	// point 3 at distance 0.8
}

// The README quickstart: declare a BC-Tree with a Spec, build it over a
// synthetic data set, answer one exact top-k hyperplane query, and
// cross-check it against the exhaustive scan.
func Example_quickstart() {
	data := p2h.Dedup(p2h.GenerateDataset("Sift", 2000, 1))
	index, err := p2h.New(data, p2h.Spec{Kind: p2h.KindBCTree})
	if err != nil {
		panic(err)
	}

	queries := p2h.GenerateQueries(data, 1, 2)
	q := queries.Row(0)
	results, stats := index.Search(q, p2h.SearchOptions{K: 10})

	exact, _ := p2h.NewLinearScan(data).Search(q, p2h.SearchOptions{K: 10})
	fmt.Println("top-k size:", len(results))
	fmt.Println("matches exhaustive scan:", results[0] == exact[0])
	fmt.Println("pruned some work:", stats.Candidates < int64(data.N))
	// Output:
	// top-k size: 10
	// matches exhaustive scan: true
	// pruned some work: true
}

// Spec.Quantize adds an 8-bit quantized mirror of the tree's leaf blocks:
// leaf rows are first screened by an integer-kernel scan whose error bound is
// exact, so results stay bitwise identical to the unquantized index while
// exact queries verify far fewer float rows. The mirror persists through
// Save/Load with the tree.
func ExampleNew_quantized() {
	data := p2h.Dedup(p2h.GenerateDataset("Sift", 2000, 1))
	plain, err := p2h.New(data, p2h.Spec{Kind: p2h.KindBCTree, Seed: 1})
	if err != nil {
		panic(err)
	}
	quantized, err := p2h.New(data, p2h.Spec{Kind: p2h.KindBCTree, Seed: 1, Quantize: true})
	if err != nil {
		panic(err)
	}

	q := p2h.GenerateQueries(data, 1, 2).Row(0)
	want, plainStats := plain.Search(q, p2h.SearchOptions{K: 10})
	got, quantStats := quantized.Search(q, p2h.SearchOptions{K: 10})

	same := len(got) == len(want)
	for i := range got {
		same = same && got[i] == want[i]
	}
	fmt.Println("identical results:", same)
	fmt.Println("fewer verified candidates:", quantStats.Candidates < plainStats.Candidates)
	// Output:
	// identical results: true
	// fewer verified candidates: true
}

// Any registered index kind builds from the same declarative Spec, and the
// persistable kinds round-trip through the self-describing container
// format: Save writes the kind and Spec alongside the payload, so Load
// restores the right backend with no type information from the caller.
func ExampleSave() {
	data := p2h.Dedup(p2h.GenerateDataset("Music", 1000, 1))
	index, err := p2h.New(data, p2h.Spec{Kind: p2h.KindBallTree, LeafSize: 50, Seed: 1})
	if err != nil {
		panic(err)
	}

	var container bytes.Buffer
	if err := p2h.Save(&container, index); err != nil {
		panic(err)
	}
	loaded, err := p2h.Load(&container)
	if err != nil {
		panic(err)
	}

	q := p2h.GenerateQueries(data, 1, 2).Row(0)
	before, _ := index.Search(q, p2h.SearchOptions{K: 3})
	after, _ := loaded.Search(q, p2h.SearchOptions{K: 3})
	fmt.Println("restored kind:", p2h.KindOf(loaded))
	fmt.Println("identical results:", before[0] == after[0] && before[1] == after[1] && before[2] == after[2])
	// Output:
	// restored kind: balltree
	// identical results: true
}
