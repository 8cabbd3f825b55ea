package dataset

import (
	"math"
	"math/bits"

	"p2h/internal/vec"
)

// Dedup removes exact duplicate rows, keeping the first occurrence of each
// distinct vector, mirroring the paper's preprocessing ("we first remove the
// duplicate data points"). The relative row order of survivors is preserved.
func Dedup(m *vec.Matrix) *vec.Matrix { return dedup(m, hashRow) }

// dedup is Dedup under a given row hash. Rows are told apart by rowsEqual, not
// by hash: first maps a hash to the first kept row that has it and next
// chains the later kept rows with the same hash (0 ends a chain: a chained
// row follows another, so it is never row 0), which costs no allocation per
// row and nothing at all beyond the map where hashes do not collide.
func dedup(m *vec.Matrix, hash func(row []float32) uint64) *vec.Matrix {
	first := make(map[uint64]int32, m.N)
	next := make([]int32, m.N)
	keep := make([]int32, 0, m.N)
rows:
	for i := 0; i < m.N; i++ {
		row := m.Row(i)
		key := hash(row)
		j, seen := first[key]
		if !seen {
			first[key] = int32(i)
			keep = append(keep, int32(i))
			continue
		}
		for {
			if rowsEqual(m.Row(int(j)), row) {
				continue rows
			}
			if next[j] == 0 {
				break
			}
			j = next[j]
		}
		next[j] = int32(i)
		keep = append(keep, int32(i))
	}
	if len(keep) == m.N {
		return m
	}
	return m.SubsetRows(keep)
}

// hashRow mixes the row's bit patterns two floats to a step.
func hashRow(row []float32) uint64 {
	const prime = 0x9E3779B97F4A7C15
	h := uint64(len(row))
	i := 0
	for ; i+2 <= len(row); i += 2 {
		w := uint64(math.Float32bits(row[i])) | uint64(math.Float32bits(row[i+1]))<<32
		h = bits.RotateLeft64((h^w)*prime, 29)
	}
	if i < len(row) {
		h = bits.RotateLeft64((h^uint64(math.Float32bits(row[i])))*prime, 29)
	}
	return h ^ h>>32
}

func rowsEqual(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
