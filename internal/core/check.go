package core

import (
	"errors"
	"fmt"

	"p2h/internal/vec"
)

// Query validation errors. The public package re-exports these sentinels so
// both its panicking Search contract and its error-returning entry points
// report malformed queries through one shared checked path.
var (
	// ErrDimMismatch reports a query whose length does not match the
	// index's dimensionality (d-dimensional points take d+1 query
	// coordinates: the normal plus the offset).
	ErrDimMismatch = errors.New("query dimension mismatch")
	// ErrZeroNormal reports a hyperplane query whose normal is the zero
	// vector, for which point-to-hyperplane distance is undefined.
	ErrZeroNormal = errors.New("hyperplane normal must be non-zero")
)

// CheckQuery validates that q describes a hyperplane over d-dimensional
// points — length d+1 with a non-zero normal — and returns the normal's
// Euclidean length. Every validation site (the panicking index wrappers, the
// serving engine's calling-goroutine checks, the batch paths) goes through
// this one function so the reported conditions cannot drift apart.
func CheckQuery(q []float32, d int) (norm float64, err error) {
	if len(q) != d+1 {
		return 0, fmt.Errorf("%w: query has dimension %d, want %d (normal) + 1 (offset)",
			ErrDimMismatch, len(q), d+1)
	}
	norm = vec.Norm(q[:d])
	if norm == 0 {
		return 0, ErrZeroNormal
	}
	return norm, nil
}

// UnitNormBand reports whether a normal of length n passes as already
// normalized: within one part in 10^6 of unit length the induced distance
// error sits below the float32 resolution of the accumulated inner products,
// and the band admits queries normalized in float32 upstream (e.g. the
// serving layer's canonical forms), sparing them a copy-and-rescale.
func UnitNormBand(n float64) bool { return n > 1-1e-6 && n < 1+1e-6 }
