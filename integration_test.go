package p2h

// The paper's Table III size ordering, read off the index structures. That
// every kind answers like the exhaustive scan is the oracle matrix's
// (oracle_test.go); the budget's quality floors are in recallgate_test.go.

import (
	"testing"

	"p2h/internal/balltree"
)

// TestIntegrationIndexBytesOrdering: the paper's Table III size ordering
// holds on a common data set: trees are smaller than hash indexes. Between
// the two trees the paper's order does not: a BC-Tree adds two 16-bit codes a
// point and a centerNorm a node to a Ball-Tree and drops the right children's
// centres, (nodes-1)/2 rows of d floats — which at d = 129 and the default
// leaf size outweighs what it adds.
func TestIntegrationIndexBytesOrdering(t *testing.T) {
	data := Dedup(GenerateDataset("Sift", 2000, 11))
	ball := MustBuild(t, data, Spec{Kind: KindBallTree, Seed: 1})
	bc := MustBuild(t, data, Spec{Kind: KindBCTree, Seed: 1})
	nhIx := MustBuild(t, data, Spec{Kind: KindNH, M: 32, Seed: 1})
	fhIx := MustBuild(t, data, Spec{Kind: KindFH, M: 32, Seed: 1})
	if ball.IndexBytes() >= nhIx.IndexBytes() || bc.IndexBytes() >= nhIx.IndexBytes() {
		t.Fatalf("trees (%d, %d) must be smaller than NH (%d)",
			ball.IndexBytes(), bc.IndexBytes(), nhIx.IndexBytes())
	}
	if ball.IndexBytes() >= fhIx.IndexBytes() || bc.IndexBytes() >= fhIx.IndexBytes() {
		t.Fatalf("trees (%d, %d) must be smaller than FH (%d)",
			ball.IndexBytes(), bc.IndexBytes(), fhIx.IndexBytes())
	}
	arenaNodes := func(ix Index) int64 { return int64(ix.(wrapped).base().in.(*balltree.Tree).Nodes()) }
	n, d, nodes := int64(bc.N()), int64(bc.Dim()+1), arenaNodes(bc)
	if arenaNodes(ball) != nodes {
		t.Fatalf("same seed must split identically: %d vs %d nodes", arenaNodes(ball), nodes)
	}
	if got, want := bc.IndexBytes()-ball.IndexBytes(), 4*n+8*nodes-4*d*(nodes-1)/2; got != want {
		t.Fatalf("BC-Tree (%d) carries %d bytes over Ball-Tree (%d), want 4n + 8 nodes - 4d(nodes-1)/2 = %d",
			bc.IndexBytes(), got, ball.IndexBytes(), want)
	}
	if bc.IndexBytes() >= ball.IndexBytes() {
		t.Fatalf("BC-Tree (%d) should be the lighter index at d = %d, Ball-Tree is %d", bc.IndexBytes(), d, ball.IndexBytes())
	}
}
