package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewTopKPanicsOnBadK(t *testing.T) {
	for _, k := range []int{0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTopK(%d) should panic", k)
				}
			}()
			NewTopK(k)
		}()
	}
}

func TestTopKLambdaBeforeFull(t *testing.T) {
	tk := NewTopK(3)
	if !math.IsInf(tk.Lambda(), 1) {
		t.Fatal("Lambda must be +Inf while not full")
	}
	tk.Push(1, 5)
	tk.Push(2, 1)
	if !math.IsInf(tk.Lambda(), 1) {
		t.Fatal("Lambda must remain +Inf with 2 of 3 results")
	}
	tk.Push(3, 3)
	if tk.Lambda() != 5 {
		t.Fatalf("Lambda = %v, want 5 (worst kept)", tk.Lambda())
	}
}

func TestTopKKeepsBest(t *testing.T) {
	tk := NewTopK(2)
	dists := []float64{9, 4, 7, 1, 8, 2}
	for i, d := range dists {
		tk.Push(int32(i), d)
	}
	got := tk.Results()
	if len(got) != 2 || got[0].Dist != 1 || got[1].Dist != 2 {
		t.Fatalf("Results = %v, want dists [1 2]", got)
	}
	if got[0].ID != 3 || got[1].ID != 5 {
		t.Fatalf("Results ids = %v, want [3 5]", got)
	}
}

func TestTopKRejectsWorse(t *testing.T) {
	tk := NewTopK(1)
	if !tk.Push(0, 2) {
		t.Fatal("first push must be kept")
	}
	if tk.Push(1, 3) {
		t.Fatal("worse candidate must be rejected")
	}
	if tk.Push(2, 2) {
		t.Fatal("equal candidate must be rejected (strict improvement)")
	}
	if !tk.Push(3, 1) {
		t.Fatal("better candidate must be kept")
	}
	if tk.Lambda() != 1 {
		t.Fatalf("Lambda = %v, want 1", tk.Lambda())
	}
}

func TestTopKReset(t *testing.T) {
	tk := NewTopK(2)
	tk.Push(0, 1)
	tk.Push(1, 2)
	tk.Reset()
	if tk.Len() != 0 || tk.Full() {
		t.Fatal("Reset must empty the collector")
	}
	if !math.IsInf(tk.Lambda(), 1) {
		t.Fatal("Lambda must be +Inf after Reset")
	}
}

func TestSortResultsTieBreak(t *testing.T) {
	rs := []Result{{ID: 5, Dist: 1}, {ID: 2, Dist: 1}, {ID: 9, Dist: 0.5}}
	SortResults(rs)
	if rs[0].ID != 9 || rs[1].ID != 2 || rs[2].ID != 5 {
		t.Fatalf("SortResults = %v", rs)
	}
}

// TestMergeResults: the merge is SortResults over the concatenated lists, cut
// to k — ties at the k-th distance go to the smaller id, empty lists
// contribute nothing, a k above the total keeps everything, and an empty
// merge is an empty list, never nil (it encodes as [] on the wire).
func TestMergeResults(t *testing.T) {
	lists := [][]Result{
		{{ID: 5, Dist: 1}, {ID: 2, Dist: 2}},
		{{ID: 1, Dist: 1}, {ID: 9, Dist: 1}, {ID: 3, Dist: 2}},
		{},
		nil,
		{{ID: 0, Dist: 0.5}},
	}
	all := []Result{{0, 0.5}, {1, 1}, {5, 1}, {9, 1}, {2, 2}, {3, 2}}
	for _, tc := range []struct {
		name  string
		lists [][]Result
		k     int
		want  []Result
	}{
		{"tie at the k-th distance", lists, 3, all[:3]},
		{"tie past the k-th distance", lists, 5, all[:5]},
		{"k above the total", lists, 100, all},
		{"all lists empty", [][]Result{{}, nil, {}}, 4, []Result{}},
		{"no lists", nil, 4, []Result{}},
	} {
		before := fmt.Sprint(tc.lists)
		got := MergeResults(tc.lists, tc.k)
		if got == nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: MergeResults = %#v, want %#v", tc.name, got, tc.want)
		}
		if after := fmt.Sprint(tc.lists); after != before {
			t.Errorf("%s: the input lists changed: %s, were %s", tc.name, after, before)
		}
	}
}

// Property: TopK over a random stream returns exactly the k smallest
// distances, in sorted order.
func TestQuickTopKMatchesSort(t *testing.T) {
	f := func(seed int64, kk, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kk%10) + 1
		n := int(nn%100) + 1
		tk := NewTopK(k)
		dists := make([]float64, n)
		for i := range dists {
			// duplicates on purpose: quantized distances
			dists[i] = math.Floor(rng.Float64()*32) / 4
			tk.Push(int32(i), dists[i])
		}
		sorted := append([]float64(nil), dists...)
		sort.Float64s(sorted)
		want := sorted
		if len(want) > k {
			want = want[:k]
		}
		got := tk.Results()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Dist != want[i] {
				return false
			}
		}
		// results are sorted ascending
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Lambda never increases as more candidates are pushed once full.
func TestQuickLambdaMonotone(t *testing.T) {
	f := func(seed int64, kk uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kk%5) + 1
		tk := NewTopK(k)
		prev := math.Inf(1)
		for i := 0; i < 200; i++ {
			tk.Push(int32(i), rng.Float64())
			if tk.Full() {
				l := tk.Lambda()
				if l > prev {
					return false
				}
				prev = l
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
