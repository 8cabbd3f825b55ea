package partition

import (
	"math/rand"
	"slices"
	"testing"

	"p2h/internal/vec"
)

func TestSeedGrowPartitionsAroundPivots(t *testing.T) {
	// Two well-separated blobs: the split must separate them exactly.
	rng := rand.New(rand.NewSource(1))
	m := vec.NewMatrix(40, 3)
	for i := 0; i < 20; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = float32(rng.NormFloat64() * 0.1)
		}
	}
	for i := 20; i < 40; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 100 + float32(rng.NormFloat64()*0.1)
		}
	}
	ids := make([]int32, m.N)
	for i := range ids {
		ids[i] = int32(i)
	}
	nl := SeedGrow(m.Data, ids, rng, make([]float32, 2*len(ids)))
	if nl != 20 {
		t.Fatalf("expected a 20/20 split of two far blobs, got left size %d", nl)
	}
	// All ids on each side must come from one blob.
	leftBlob := ids[0] < 20
	for _, id := range ids[:nl] {
		if (id < 20) != leftBlob {
			t.Fatalf("left side mixes blobs: %v", ids[:nl])
		}
	}
	for _, id := range ids[nl:] {
		if (id < 20) == leftBlob {
			t.Fatalf("right side mixes blobs: %v", ids[nl:])
		}
	}
}

func TestSeedGrowPreservesIDMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := vec.NewMatrix(101, 5)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	ids := make([]int32, m.N)
	for i := range ids {
		ids[i] = int32(i)
	}
	nl := SeedGrow(m.Data, ids, rng, make([]float32, 2*len(ids)))
	if nl <= 0 || nl >= len(ids) {
		t.Fatalf("split must be proper for generic data, got %d of %d", nl, len(ids))
	}
	seen := make(map[int32]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %d after partition", id)
		}
		seen[id] = true
	}
	if len(seen) != m.N {
		t.Fatalf("lost ids: %d != %d", len(seen), m.N)
	}
}

func TestSeedGrowDegenerateAllIdentical(t *testing.T) {
	m := vec.NewMatrix(10, 4)
	for i := 0; i < m.N; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 3.25
		}
	}
	ids := make([]int32, m.N)
	for i := range ids {
		ids[i] = int32(i)
	}
	nl := SeedGrow(m.Data, ids, rand.New(rand.NewSource(3)), make([]float32, 2*len(ids)))
	if nl != m.N/2 {
		t.Fatalf("degenerate split should halve: got %d, want %d", nl, m.N/2)
	}
}

func TestSeedGrowTinyInputs(t *testing.T) {
	m := vec.NewMatrix(2, 2)
	m.Row(0)[0] = 1
	m.Row(1)[0] = 2
	ids := []int32{0, 1}
	nl := SeedGrow(m.Data, ids, rand.New(rand.NewSource(5)), make([]float32, 2*len(ids)))
	if nl != 1 {
		t.Fatalf("two distinct points must split 1/1, got %d", nl)
	}
	one := []int32{0}
	if got := SeedGrow(m.Data[:2], one, rand.New(rand.NewSource(5)), make([]float32, 2*len(one))); got != 1 {
		t.Fatalf("single id returns len(ids): got %d", got)
	}
}

// seedGrowRecompute is SeedGrow as first written: over a shared matrix and a
// list of row ids, which alone it reorders, measuring every point against
// both pivots in the assignment loop with the per-row kernel.
func seedGrowRecompute(data *vec.Matrix, ids []int32, rng *rand.Rand) int {
	farthest := func(from []float32) []float32 {
		pos, best := 0, -1.0
		for i, id := range ids {
			if d := vec.SqDist(data.Row(int(id)), from); d > best {
				pos, best = i, d
			}
		}
		return data.Row(int(ids[pos]))
	}
	xl := farthest(data.Row(int(ids[rng.Intn(len(ids))])))
	xr := farthest(xl)
	lo, hi := 0, len(ids)-1
	for lo <= hi {
		x := data.Row(int(ids[lo]))
		if vec.SqDist(x, xl) <= vec.SqDist(x, xr) {
			lo++
		} else {
			ids[lo], ids[hi] = ids[hi], ids[lo]
			hi--
		}
	}
	if lo == 0 || lo == len(ids) {
		return len(ids) / 2
	}
	return lo
}

// TestSeedGrowKeepsStoredDistances checks that reusing the xl pass, screening
// the passes in float32 and carrying rows, ids and sides through the swaps
// leaves ids in exactly the order the float64 recomputing version produces
// over an untouched matrix — the order the built trees' bytes depend on — and
// every row beside its id. The coarse grid makes exact ties of distances and
// of the two sides' comparisons, at small dimensions and at wide ones.
func TestSeedGrowKeepsStoredDistances(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, d := 2+rng.Intn(300), 1+rng.Intn(9)
		if seed > 20 {
			d = []int{16, 64, 129}[seed%3]
		}
		m := vec.NewMatrix(n, d)
		for i := range m.Data {
			m.Data[i] = float32(rng.Intn(5)) // coarse grid: many exact ties
		}
		got := make([]int32, n)
		for i := range got {
			got[i] = int32(i)
		}
		want := append([]int32(nil), got...)
		moved := m.Clone()
		nlGot := SeedGrow(moved.Data, got, rand.New(rand.NewSource(seed)), make([]float32, 2*len(got)))
		nlWant := seedGrowRecompute(m, want, rand.New(rand.NewSource(seed)))
		if nlGot != nlWant {
			t.Fatalf("seed %d: left size %d, recomputing version %d", seed, nlGot, nlWant)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: ids[%d] = %d, recomputing version %d", seed, i, got[i], want[i])
			}
			if !slices.Equal(moved.Row(i), m.Row(int(got[i]))) {
				t.Fatalf("seed %d: position %d holds id %d but not its row", seed, i, got[i])
			}
		}
	}
}
