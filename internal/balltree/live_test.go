package balltree

import (
	"fmt"
	"testing"

	"p2h/internal/core"
)

// TestLiveMaskEqualsFilter: SearchLive's bitmap is a Filter closure over the
// same bits moved into the leaf scan, so the two must agree bitwise — results,
// candidates verified and inner products — exact and under three budgets,
// alone and beside a caller's Filter. The tree has leaves wholly dead, leaves
// untouched and leaves with every third row dead.
func TestLiveMaskEqualsFilter(t *testing.T) { forKinds(t, testLiveMaskEqualsFilter) }

func testLiveMaskEqualsFilter(t *testing.T, kind Kind) {
	tree, queries := batchSetup(t, kind, 3000, 24, 41)
	live := make(core.Bitmap, core.BitmapWords(tree.N()))
	var deadLeaves, wholeLeaves, leaves int
	for ni := range tree.nodes {
		n := &tree.nodes[ni]
		if !n.isLeaf() {
			continue
		}
		leaves++
		switch leaves % 3 {
		case 0:
			deadLeaves++
			continue
		case 1:
			wholeLeaves++
		}
		for pos := n.start; pos < n.end; pos++ {
			if leaves%3 == 1 || pos%3 != 0 {
				live.Set(tree.sec().ids[pos])
			}
		}
	}
	if deadLeaves == 0 || wholeLeaves == 0 {
		t.Fatalf("%d leaves: %d wholly dead, %d untouched", leaves, deadLeaves, wholeLeaves)
	}
	keep := func(id int32) bool { return id%5 != 0 }
	n := tree.N()
	for _, budget := range []int{0, n / 100, n / 20, n / 4} {
		for _, user := range []func(int32) bool{nil, keep} {
			opts := core.SearchOptions{K: 10, Budget: budget, Filter: user}
			closure := opts
			closure.Filter = func(id int32) bool { return live.Has(id) && (user == nil || user(id)) }
			for qi := 0; qi < queries.N; qi++ {
				q := queries.Row(qi)
				got, gotSt := tree.SearchLive(q, opts, live)
				want, wantSt := tree.Search(q, closure)
				label := fmt.Sprintf("budget %d, Filter %v", budget, user != nil)
				requireSameResults(t, label, got, want)
				if gotSt.Candidates != wantSt.Candidates || gotSt.IPCount != wantSt.IPCount {
					t.Fatalf("%s, query %d: mask verified %d with %d inner products, closure %d with %d",
						label, qi, gotSt.Candidates, gotSt.IPCount, wantSt.Candidates, wantSt.IPCount)
				}
				for _, r := range got {
					if !live.Has(r.ID) {
						t.Fatalf("%s, query %d: dead id %d answered", label, qi, r.ID)
					}
				}
			}
		}
	}
}
