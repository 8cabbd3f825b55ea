package exec

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRecycles(t *testing.T) {
	type thing struct{ n int }
	var p Pool[thing]
	a := p.Get()
	if a == nil || a.n != 0 {
		t.Fatal("Get must return a zero value when empty")
	}
	a.n = 7
	p.Put(a)
	b := p.Get()
	// sync.Pool may drop entries, so only the recycled case is asserted.
	if b == a && b.n != 7 {
		t.Fatal("recycled value must keep its state")
	}
}

func TestBatchScratchArenaLIFO(t *testing.T) {
	var b BatchScratch
	mark := b.Mark()
	act1, ips1 := b.Alloc(3)
	for i := range act1 {
		act1[i] = int32(i)
		ips1[i] = float64(i)
	}
	inner := b.Mark()
	act2, _ := b.Alloc(2)
	act2[0], act2[1] = 7, 8
	if act1[0] != 0 || act1[2] != 2 {
		t.Fatal("sibling alloc must not clobber an earlier segment")
	}
	b.Release(inner)
	// A fresh alloc after release reuses the inner region.
	act3, _ := b.Alloc(2)
	act3[0] = 9
	if b.Mark() != inner+2 {
		t.Fatalf("watermark %d, want %d", b.Mark(), inner+2)
	}
	b.Release(mark)
	if b.Mark() != mark {
		t.Fatalf("watermark %d after release, want %d", b.Mark(), mark)
	}
}

// TestBatchScratchArenaGrowth checks that segments handed out before a
// growth stay readable and writable: the recursion keeps slices into the
// superseded arrays alive on its stack frames.
func TestBatchScratchArenaGrowth(t *testing.T) {
	var b BatchScratch
	act1, ips1 := b.Alloc(4)
	for i := range act1 {
		act1[i], ips1[i] = int32(i+1), float64(i+1)
	}
	// Force several growths.
	for i := 0; i < 10; i++ {
		b.Alloc(1 << i)
	}
	for i := range act1 {
		if act1[i] != int32(i+1) || ips1[i] != float64(i+1) {
			t.Fatalf("pre-growth segment corrupted at %d: %d %f", i, act1[i], ips1[i])
		}
	}
	act1[0] = 42 // writes must not fault either
	if act1[0] != 42 {
		t.Fatal("pre-growth segment not writable")
	}
}

// TestBatchScratchReset checks that Reset rewinds an arena a walk left
// mid-recursion (a panicking Filter, say) and keeps its storage: the next
// walk's first segment starts at the bottom again, in the same backing array.
func TestBatchScratchReset(t *testing.T) {
	var b BatchScratch
	first, _ := b.Alloc(3) // never released
	b.Reset()
	if b.Mark() != 0 {
		t.Fatalf("watermark %d after Reset, want 0", b.Mark())
	}
	again, _ := b.Alloc(3)
	again[0] = 11
	if first[0] != 11 {
		t.Fatal("Reset must reuse the arena, not reallocate it")
	}
}

// TestForChunks pins the split every batched caller relies on: min(parts, n)
// contiguous chunks of near-equal size covering [0, n) exactly once, the
// lowest failing chunk's error, and a chunk's panic re-raised in the caller
// only after every other chunk has finished.
func TestForChunks(t *testing.T) {
	for _, tc := range []struct {
		n, parts int
		want     string
	}{
		{0, 4, "[]"},
		{5, 0, "[[0 5]]"},
		{5, 1, "[[0 5]]"},
		{10, 3, "[[0 3] [3 6] [6 10]]"},
		{3, 8, "[[0 1] [1 2] [2 3]]"},
	} {
		var mu sync.Mutex
		got := [][2]int{}
		if err := ForChunks(tc.n, tc.parts, func(lo, hi int) error {
			mu.Lock()
			defer mu.Unlock()
			got = append(got, [2]int{lo, hi})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i][0] < got[j][0] })
		if fmt.Sprint(got) != tc.want {
			t.Errorf("ForChunks(%d, %d) ran %v, want %s", tc.n, tc.parts, got, tc.want)
		}
	}

	err := ForChunks(9, 3, func(lo, hi int) error {
		if lo == 0 {
			return nil
		}
		return fmt.Errorf("chunk at %d", lo)
	})
	if err == nil || err.Error() != "chunk at 3" {
		t.Errorf("err = %v, want the lowest failing chunk's", err)
	}

	var finished atomic.Int32
	func() {
		defer func() {
			if p := recover(); p != "chunk boom" {
				t.Errorf("recovered %v, want the chunk's panic", p)
			}
			if finished.Load() != 2 {
				t.Errorf("panic re-raised with %d of 2 other chunks finished", finished.Load())
			}
		}()
		_ = ForChunks(3, 3, func(lo, hi int) error {
			if lo == 1 {
				panic("chunk boom")
			}
			time.Sleep(10 * time.Millisecond)
			finished.Add(1)
			return nil
		})
	}()
}

// TestForEach pins the pull-scheduled fan-out: every index in [0, n) runs
// exactly once on at most min(workers, n) goroutines, and a panic on one of
// them is re-raised in the caller once the other workers have drained the
// rest of the items.
func TestForEach(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{{0, 4}, {5, 0}, {5, 1}, {10, 3}, {3, 8}} {
		counts := make([]atomic.Int32, tc.n)
		var running, peak atomic.Int32
		ForEach(tc.n, tc.workers, func(i int) {
			if r := running.Add(1); r > peak.Load() {
				peak.Store(r)
			}
			time.Sleep(time.Millisecond)
			counts[i].Add(1)
			running.Add(-1)
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("ForEach(%d, %d) ran item %d %d times", tc.n, tc.workers, i, c)
			}
		}
		if limit := max(1, min(tc.n, tc.workers)); int(peak.Load()) > limit {
			t.Errorf("ForEach(%d, %d) ran %d items at once, want at most %d", tc.n, tc.workers, peak.Load(), limit)
		}
	}

	var finished atomic.Int32
	func() {
		defer func() {
			if p := recover(); p != "item boom" {
				t.Errorf("recovered %v, want the item's panic", p)
			}
			if finished.Load() != 7 {
				t.Errorf("panic re-raised with %d of 7 other items finished", finished.Load())
			}
		}()
		ForEach(8, 3, func(i int) {
			if i == 1 {
				panic("item boom")
			}
			time.Sleep(time.Millisecond)
			finished.Add(1)
		})
	}()
}
