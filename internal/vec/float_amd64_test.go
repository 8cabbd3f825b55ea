//go:build amd64 && !purego

package vec

import "testing"

// TestFloatKernelsReferenceDispatch runs the harness with the assembly
// switched off, the state of an amd64 host without AVX2 or FMA.
func TestFloatKernelsReferenceDispatch(t *testing.T) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	useAVX2 = false
	if Kernel() != "go" {
		t.Fatalf("Kernel() = %q with the assembly off", Kernel())
	}
	runFloatKernelTable(t)
	runSignedZeroTable(t)
	runScreenTable(t)
	TestFloatKernelsKeepPanics(t)
}
