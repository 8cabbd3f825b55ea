package p2h

import "testing"

// CodecVariants hands the external test package the codec's whole matrix of
// indexes (see codecVariants), so the doc lint can read what Save writes.
func CodecVariants(t *testing.T) map[string]Index { return codecVariants(t) }

// CanonicalQuery hands the external test package the query every index
// answers for q over d-dimensional points: q rescaled to a unit normal where
// it is not one (see canonicalQuery).
func CanonicalQuery(q []float32, d int) []float32 { return checkQuery(q, d) }
