// Package partition implements the seed-grow splitting rule shared by the
// Ball-Tree and BC-Tree constructions (paper Algorithm 2 plus the partition
// step of Algorithm 1 line 8 / Algorithm 4 line 13).
package partition

import (
	"math/rand"

	"p2h/internal/vec"
)

// SeedGrow partitions a packed row-major block of points in place around a
// far pair of pivots: pick a random point v, let xl be the point farthest from
// v and xr the point farthest from xl, then send every point to its closer
// pivot (ties to the left). rows holds len(ids) rows and ids[i] names row i;
// a row, its id and its two stored distances move together, so the block
// stays contiguous on both sides of the cut. The left part ends up in the
// prefix; SeedGrow returns its size.
//
// Degenerate inputs (all points identical, so the split would put everything
// on one side) fall back to a balanced halving, which keeps recursive tree
// construction terminating. The paper's algorithm implicitly assumes distinct
// points after dedup; real corpora can still contain near-duplicates.
//
// dist is scratch for two distances per point, at least 2*len(ids) long; a
// caller that splits again and again sizes it once, for its largest split.
func SeedGrow(rows []float32, ids []int32, rng *rand.Rand, dist []float64) int {
	n := len(ids)
	if n < 2 {
		return n
	}
	d := len(rows) / n
	row := func(i int) []float32 { return rows[i*d : (i+1)*d] }
	posL, _ := vec.MaxDistBlock(row(rng.Intn(n)), rows)
	// The pass that finds xr leaves every point's distance to xl behind; the
	// assignment below needs only one more pass, from xr.
	dl, dr := dist[:n], dist[n:2*n]
	vec.SqDistBlock(row(posL), rows, dl)
	posR, far := 0, -1.0
	for i, v := range dl {
		if v > far {
			posR, far = i, v
		}
	}
	vec.SqDistBlock(row(posR), rows, dr)

	var buf [256]float32 // swapRows' chunk, on the stack, zeroed once a split
	lo, hi := 0, n-1
	for lo <= hi {
		if dl[lo] <= dr[lo] {
			lo++
		} else {
			// The point swapped in from hi is examined next; carry its
			// distances with it. The one moved to hi is settled.
			ids[lo], ids[hi] = ids[hi], ids[lo]
			swapRows(row(lo), row(hi), buf[:])
			dl[lo], dr[lo] = dl[hi], dr[hi]
			hi--
		}
	}
	if lo == 0 || lo == n {
		return n / 2
	}
	return lo
}

// swapRows exchanges two rows of equal length through buf, a chunk at a time,
// so the moves are block copies.
func swapRows(a, b, buf []float32) {
	for len(a) > 0 {
		n := copy(buf, a)
		copy(a, b[:n])
		copy(b, buf[:n])
		a, b = a[n:], b[n:]
	}
}
