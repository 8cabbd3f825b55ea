package p2h

import (
	"errors"
	"strings"
	"testing"
)

func TestShardedBudgetRespected(t *testing.T) {
	data, queries, _ := testSetup(t)
	ix := MustBuild(t, data, Spec{Kind: KindSharded, Shards: 4, Seed: 2}).(*Sharded)
	for i := 0; i < queries.N; i++ {
		_, st := ix.Search(queries.Row(i), SearchOptions{K: 5, Budget: 40})
		if st.Candidates > int64(40+ix.Shards()) {
			t.Fatalf("budget blown: %d", st.Candidates)
		}
	}
}

func TestSearchBatchDefaultsWorkers(t *testing.T) {
	data, queries, _ := testSetup(t)
	ix := MustBuild(t, data, Spec{Kind: KindBCTree, Seed: 3})
	want := SearchBatch(ix, queries, SearchOptions{K: 5}, 1)
	for _, workers := range []int{0, -4} { // non-positive selects GOMAXPROCS
		got := SearchBatch(ix, queries, SearchOptions{K: 5}, workers)
		if len(got) != queries.N {
			t.Fatalf("workers=%d: %d result sets", workers, len(got))
		}
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("workers=%d query %d rank %d: %v != %v", workers, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

func TestSearchBatchEmptyQueryMatrix(t *testing.T) {
	data, _, _ := testSetup(t)
	ix := MustBuild(t, data, Spec{Kind: KindBCTree, Seed: 3})
	out := SearchBatch(ix, NewMatrix(0, data.D+1), SearchOptions{K: 5}, 4)
	if out == nil || len(out) != 0 {
		t.Fatalf("empty batch: %v", out)
	}
}

func TestSearchBatchValidatesDimensions(t *testing.T) {
	data, _, _ := testSetup(t)
	ix := MustBuild(t, data, Spec{Kind: KindBCTree})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SearchBatch(ix, NewMatrix(3, data.D), SearchOptions{K: 1}, 2) // missing offset dim
}

// TestFanOutPanicsReachTheCaller: a panic on one of the goroutines a search
// fans out over — a shard worker, a per-query batch worker — is re-raised in
// the caller, where it can be recovered (and, through a Server, counted),
// instead of killing the process.
func TestFanOutPanicsReachTheCaller(t *testing.T) {
	data, queries, _ := testSetup(t)
	recovered := func(f func()) (p any) {
		defer func() { p = recover() }()
		f()
		return nil
	}
	boom := SearchOptions{K: 5, Filter: func(int32) bool { panic("filter boom") }}
	sharded := MustBuild(t, data, Spec{Kind: KindSharded, Shards: 4, Workers: 4, Seed: 1})

	t.Run("sharded", func(t *testing.T) {
		if p := recovered(func() { sharded.Search(queries.Row(0), boom) }); p != "filter boom" {
			t.Fatalf("recovered %v, want the filter's panic", p)
		}
	})
	t.Run("server", func(t *testing.T) {
		srv := NewServer(sharded, ServerOptions{})
		defer srv.Close()
		if p := recovered(func() { srv.Search(queries.Row(0), boom) }); p != "filter boom" {
			t.Fatalf("recovered %v, want the filter's panic", p)
		}
		if got := srv.Stats().Panics; got != 1 {
			t.Fatalf("Stats().Panics = %d, want 1", got)
		}
		if res, _ := srv.Search(queries.Row(0), SearchOptions{K: 5}); len(res) != 5 {
			t.Fatalf("search after the panic answered %d results", len(res))
		}
	})
	t.Run("batch", func(t *testing.T) {
		nh := MustBuild(t, data, Spec{Kind: KindNH, Lambda: 32, M: 8, Seed: 3})
		bad := queries.Clone()
		clear(bad.Row(3)[:data.D])
		p := recovered(func() { SearchBatch(nh, bad, SearchOptions{K: 5}, 4) })
		if s, _ := p.(string); !strings.Contains(s, ErrZeroNormal.Error()) {
			t.Fatalf("recovered %v, want the zero-normal panic", p)
		}
	})
}

func TestTuneBudgetReachesTarget(t *testing.T) {
	data, queries, gt := testSetup(t)
	ix := MustBuild(t, data, Spec{Kind: KindBCTree, Seed: 4})
	budget := TuneBudget(ix, queries, gt, 5, 0.9)
	if budget < 1 || budget > data.N {
		t.Fatalf("budget %d out of range", budget)
	}
	recallAt := func(budget int) float64 {
		var recall float64
		for i := 0; i < queries.N; i++ {
			res, _ := ix.Search(queries.Row(i), SearchOptions{K: 5, Budget: budget})
			recall += Recall(res, gt[i])
		}
		return recall / float64(queries.N)
	}
	if r := recallAt(budget); r < 0.9 {
		t.Fatalf("tuned budget %d gives recall %v < 0.9", budget, r)
	}
	// It is the smallest such budget to within 5 %, not the ladder step
	// above it: one step of that width below, the target is missed.
	if below := budget - max(budget/20, 1) - 1; below >= 1 {
		if r := recallAt(below); r >= 0.9 {
			t.Fatalf("budget %d already gives recall %v; TuneBudget returned %d", below, r, budget)
		}
	}
}

func TestTuneBudgetUnreachableTargetReturnsN(t *testing.T) {
	data, queries, gt := testSetup(t)
	ix := MustBuild(t, data, Spec{Kind: KindBCTree, Seed: 4})
	// Recall can never exceed 1, so an impossible target must fall through
	// the whole fraction ladder and return the full data size.
	if budget := TuneBudget(ix, queries, gt, 5, 1.5); budget != data.N {
		t.Fatalf("unreachable target: budget %d, want n=%d", budget, data.N)
	}
}

func TestTuneBudgetValidatesInput(t *testing.T) {
	data, queries, _ := testSetup(t)
	ix := MustBuild(t, data, Spec{Kind: KindBCTree})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TuneBudget(ix, queries, nil, 5, 0.9) // no ground truth
}

func TestDynamicFacadeLifecycle(t *testing.T) {
	data, queries, gt := testSetup(t)
	ix := MustBuild(t, data, Spec{Kind: KindDynamic, Seed: 1}).(*Dynamic)
	if ix.N() != data.N || ix.Dim() != data.D {
		t.Fatalf("shape %d/%d", ix.N(), ix.Dim())
	}
	// Bulk-loaded dynamic index is exact.
	for i := 0; i < queries.N; i++ {
		res, _ := ix.Search(queries.Row(i), SearchOptions{K: 5})
		if r := Recall(res, gt[i]); r < 1-1e-12 {
			t.Fatalf("query %d recall %v", i, r)
		}
	}
	// Deleting the current best promotes the runner-up.
	q := queries.Row(0)
	before, _ := ix.Search(q, SearchOptions{K: 2})
	if !ix.Delete(before[0].ID) {
		t.Fatal("delete failed")
	}
	after, _ := ix.Search(q, SearchOptions{K: 1})
	if after[0].ID != before[1].ID {
		t.Fatalf("after delete want %v, got %v", before[1], after[0])
	}
	// Re-inserting the deleted vector brings the distance back (new handle).
	p := data.Row(int(before[0].ID))
	h := ix.Insert(p)
	again, _ := ix.Search(q, SearchOptions{K: 1})
	if again[0].ID != h {
		t.Fatalf("reinserted point (handle %d) should win again, got %v", h, again[0])
	}
}

func TestDynamicFacadeEmptyStart(t *testing.T) {
	ix := MustBuild(t, nil, Spec{Kind: KindDynamic, Dim: 4}).(*Dynamic)
	if ix.N() != 0 || ix.Dim() != 4 {
		t.Fatalf("empty start: n=%d dim=%d", ix.N(), ix.Dim())
	}
	h := ix.Insert([]float32{1, 2, 3, 4})
	q := Hyperplane([]float32{1, 0, 0, 0}, -1)
	res, _ := ix.Search(q, SearchOptions{K: 1})
	if len(res) != 1 || res[0].ID != h || res[0].Dist > 1e-6 {
		t.Fatalf("result %v", res)
	}
}

func TestDynamicFacadeRequiresDim(t *testing.T) {
	if _, err := New(nil, Spec{Kind: KindDynamic}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("empty start without Spec.Dim: err = %v, want ErrDimMismatch", err)
	}
}
