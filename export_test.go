package p2h

import "testing"

// CodecVariants hands the external test package the codec's whole matrix of
// indexes (see codecVariants), so the doc lint can read what Save writes.
func CodecVariants(t *testing.T) map[string]Index { return codecVariants(t) }
