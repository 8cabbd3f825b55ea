// Package partition implements the seed-grow splitting rule shared by the
// Ball-Tree and BC-Tree constructions (paper Algorithm 2 plus the partition
// step of Algorithm 1 line 8 / Algorithm 4 line 13).
package partition

import (
	"math/rand"

	"p2h/internal/vec"
)

// SeedGrow partitions ids in place around a far pair of pivots: pick a random
// point v, let xl be the point farthest from v and xr the point farthest from
// xl, then send every point to its closer pivot (ties to the left). The left
// part ends up in the prefix of ids; SeedGrow returns its size.
//
// Degenerate inputs (all points identical, so the split would put everything
// on one side) fall back to a balanced halving, which keeps recursive tree
// construction terminating. The paper's algorithm implicitly assumes distinct
// points after dedup; real corpora can still contain near-duplicates.
//
// dist is scratch for two distances per point, at least 2*len(ids) long; a
// caller that splits again and again sizes it once, for its largest split.
func SeedGrow(data *vec.Matrix, ids []int32, rng *rand.Rand, dist []float64) int {
	if len(ids) < 2 {
		return len(ids)
	}
	v := data.Row(int(ids[rng.Intn(len(ids))]))
	posL, _ := data.MaxDistFrom(ids, v)
	xl := data.Row(int(ids[posL]))
	// The pass that finds xr leaves every point's distance to xl behind; the
	// assignment below needs only one more pass, from xr.
	dl, dr := dist[:len(ids)], dist[len(ids):2*len(ids)]
	data.SqDistsFrom(ids, xl, dl)
	posR, far := 0, -1.0
	for i, d := range dl {
		if d > far {
			posR, far = i, d
		}
	}
	data.SqDistsFrom(ids, data.Row(int(ids[posR])), dr)

	lo, hi := 0, len(ids)-1
	for lo <= hi {
		if dl[lo] <= dr[lo] {
			lo++
		} else {
			// The point swapped in from hi is examined next; carry its
			// distances with it. The one moved to hi is settled.
			ids[lo], ids[hi] = ids[hi], ids[lo]
			dl[lo], dr[lo] = dl[hi], dr[hi]
			hi--
		}
	}
	if lo == 0 || lo == len(ids) {
		return len(ids) / 2
	}
	return lo
}
