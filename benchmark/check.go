package main

import (
	"fmt"
	"math"

	p2h "p2h"
	"p2h/internal/httpapi"
)

// sameResults demands the exact answer: ids and distances, in order. The
// library promises bit-identical distances on every path, so == is the test.
// It compares only results, never the stats block, which on batched, served
// and routed paths depends on which queries shared a chunk.
func sameResults(got, want []p2h.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("rank %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

func fromJSON(rs []httpapi.ResultJSON) []p2h.Result {
	out := make([]p2h.Result, len(rs))
	for i, r := range rs {
		out[i] = p2h.Result{ID: r.ID, Dist: r.Dist}
	}
	return out
}

// validResults checks an answer that has no fixed expected value (a budgeted
// search, or a read beside writes): k distinct ids, ascending, each distance
// the true distance of the point it names. row maps an id to its vector.
func validResults(got []p2h.Result, q []float32, k int, row func(id int32) []float32) error {
	if len(got) != k {
		return fmt.Errorf("%d results, want %d", len(got), k)
	}
	seen := make(map[int32]bool, len(got))
	for i, r := range got {
		if seen[r.ID] {
			return fmt.Errorf("rank %d: id %d repeats", i, r.ID)
		}
		seen[r.ID] = true
		if i > 0 && r.Dist < got[i-1].Dist {
			return fmt.Errorf("rank %d: distance %g below rank %d's %g", i, r.Dist, i-1, got[i-1].Dist)
		}
		p := row(r.ID)
		if p == nil {
			return fmt.Errorf("rank %d: id %d names no point", i, r.ID)
		}
		if want := p2h.Distance(p, q); math.Abs(r.Dist-want) > 1e-5*want+1e-6 {
			return fmt.Errorf("rank %d: id %d at distance %g, truly %g", i, r.ID, r.Dist, want)
		}
	}
	return nil
}

// meanRecall is the mean recall@k of answers against ground truth.
func meanRecall(answers, gt [][]p2h.Result) float64 {
	if len(answers) == 0 {
		return 0
	}
	var sum float64
	for i := range answers {
		sum += p2h.Recall(answers[i], gt[i])
	}
	return sum / float64(len(answers))
}
