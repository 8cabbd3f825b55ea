package core

import (
	"sync"
	"testing"
	"time"
)

func TestStatsAdd(t *testing.T) {
	a := Stats{IPCount: 1, Candidates: 2, NodesVisited: 3, LeavesVisited: 4, PrunedNodes: 5, PrunedPoints: 6, BucketProbes: 7}
	b := a
	a.Add(b)
	if a.IPCount != 2 || a.Candidates != 4 || a.NodesVisited != 6 ||
		a.LeavesVisited != 8 || a.PrunedNodes != 10 || a.PrunedPoints != 12 || a.BucketProbes != 14 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestProfileNilSafe(t *testing.T) {
	var p *Profile
	p.Add(PhaseVerify, time.Second) // must not panic
	if p.Total() != 0 {
		t.Fatal("nil profile Total must be 0")
	}
	if p.Get(PhaseBound) != 0 {
		t.Fatal("nil profile Get must be 0")
	}
}

func TestProfileAccumulates(t *testing.T) {
	p := &Profile{}
	p.Add(PhaseVerify, 2*time.Millisecond)
	p.Add(PhaseVerify, 3*time.Millisecond)
	p.Add(PhaseBound, 1*time.Millisecond)
	if p.Get(PhaseVerify) != 5*time.Millisecond {
		t.Fatalf("verify = %v", p.Get(PhaseVerify))
	}
	if p.Total() != 6*time.Millisecond {
		t.Fatalf("total = %v", p.Total())
	}

	// Goroutines serving one call add into one profile; no add is lost.
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 1000 {
				p.Add(PhaseLookup, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if p.Get(PhaseLookup) != 8*time.Millisecond || p.Total() != 14*time.Millisecond {
		t.Fatalf("after concurrent adds: lookup %v, total %v", p.Get(PhaseLookup), p.Total())
	}
}

func TestPhaseStrings(t *testing.T) {
	want := map[Phase]string{
		PhaseVerify: "Verification",
		PhaseBound:  "Lower Bounds",
		PhaseLookup: "Table Lookup",
		Phase(99):   "Unknown",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("Phase(%d).String() = %q, want %q", p, p.String(), s)
		}
	}
}

func TestSearchOptionsNormalized(t *testing.T) {
	o := SearchOptions{}.Normalized()
	if o.K != 1 {
		t.Fatalf("K default = %d, want 1", o.K)
	}
	o = SearchOptions{K: 7}.Normalized()
	if o.K != 7 {
		t.Fatalf("K = %d, want 7", o.K)
	}
}

func TestBudgetLeft(t *testing.T) {
	o := SearchOptions{Budget: 10}
	if !o.BudgetLeft(9) {
		t.Fatal("budget 10 with 9 verified must allow more")
	}
	if o.BudgetLeft(10) {
		t.Fatal("budget 10 with 10 verified must stop")
	}
	unlimited := SearchOptions{Budget: 0}
	if !unlimited.BudgetLeft(1 << 40) {
		t.Fatal("budget 0 means unlimited")
	}
}

func TestPreferenceString(t *testing.T) {
	if PrefCenter.String() != "center" || PrefLowerBound.String() != "lower-bound" {
		t.Fatal("Preference.String labels wrong")
	}
}
