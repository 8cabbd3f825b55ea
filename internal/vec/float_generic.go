//go:build !amd64 || purego

package vec

// Kernel names the float kernel implementation in use: this build has only
// the Go reference.
func Kernel() string { return "go" }

func dotArch(a, b []float32) float64 { return dotGo(a, b) }

func dotBlockArch(q, rows []float32, out []float64) { dotBlockGo(q, rows, out) }

func sqDistBlockArch(q, rows []float32, out []float64) { sqDistBlockGo(q, rows, out) }

func addRowsArch(acc []float64, rows []float32) int { return 0 }

func (b *Queries) widen() {}

func (b *Queries) dotBlockTiled(qi []int32, rows []float32, out []float64) int { return 0 }
