//go:build unix

package vec

import (
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n floats whose last element ends where an unmapped page
// begins: a kernel that reads past len faults.
func guarded[T float32 | float64](t *testing.T, n int) []T {
	t.Helper()
	var zero T
	width := int(unsafe.Sizeof(zero))
	page := syscall.Getpagesize()
	size := (n*width + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // a failed unmap only leaks test memory
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[size-n*width])), n)
}

func TestFloatKernelsStayInBounds(t *testing.T) {
	for d := 1; d <= 140; d++ {
		for _, m := range []int{1, 4, 7} {
			q, rows := guarded[float32](t, d), guarded[float32](t, m*d)
			for i := range rows {
				rows[i] = float32(i%7) - 3
			}
			for i := range q {
				q[i] = float32(i%5) - 2
			}
			checkFloatKernels(t, q, rows, m, func(n int) []float64 { return guarded[float64](t, n) })
		}
	}
}
