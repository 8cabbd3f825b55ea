//go:build !amd64 || purego

package vec

// Kernel names the float kernel implementation in use: this build has only
// the Go reference.
func Kernel() string { return "go" }

func dotArch(a, b []float32) float64 { return dotGo(a, b) }

func dotBlockArch(q, rows []float32, out []float64) { dotBlockGo(q, rows, out) }

func addRowsArch(acc []float64, rows []float32) int { return 0 }

func (b *Queries) widen() {}

func (b *Queries) dotBlockTiled(qi []int32, rows []float32, out []float64) int { return 0 }

func sqDistBlock32Arch(q, rows []float32, out []float32) { sqDistBlock32Go(q, rows, out) }

func dotBlock32Arch(q, rows []float32, ip, sqn []float32) { dotBlock32Go(q, rows, ip, sqn) }

func (b *Queries) dotTile32(qi []int32, rows []float32, ip, sqn []float32) {
	b.dotTile32Go(qi, rows, ip, sqn)
}
