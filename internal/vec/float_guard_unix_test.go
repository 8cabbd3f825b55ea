//go:build unix

package vec

import (
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats returns n floats whose last element is the last four bytes
// before an unmapped page: a kernel that reads past len faults.
func guardedFloats(t *testing.T, n int) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n*4 + page - 1) / page * page
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
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[size-n*4])), n)
}

func TestFloatKernelsStayInBounds(t *testing.T) {
	for d := 1; d <= 140; d++ {
		for _, m := range []int{1, 4, 7} {
			q, rows := guardedFloats(t, d), guardedFloats(t, m*d)
			for i := range rows {
				rows[i] = float32(i%7) - 3
			}
			for i := range q {
				q[i] = float32(i%5) - 2
			}
			checkFloatKernels(t, q, rows, m)
		}
	}
}
