//go:build unix

package binio

import (
	"os"
	"runtime"
	"syscall"
)

// mapping is the owner of a MapFile Reader's bytes: the file stays mapped
// until the last value holding it is unreachable.
type mapping struct{ data []byte }

// MapFile maps the first size bytes of f read-only and returns an in-place
// Reader over them. Its Backing is the mapping, which is unmapped once nothing
// holds it any more, so f may be closed as soon as MapFile returns. The file
// must not change under the mapping while a view of it is in use: replace it
// by rename, never truncate or rewrite it in place. MapFile returns nil when
// the file cannot be mapped (empty, or the system refuses) or the mapping
// would serve no view (a big-endian host); read f as a stream instead.
func MapFile(f *os.File, size int64) *Reader {
	if !littleEndian || size <= 0 || size != int64(int(size)) {
		return nil
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil
	}
	m := &mapping{data: b}
	runtime.AddCleanup(m, func(b []byte) { _ = syscall.Munmap(b) }, b)
	return NewBytesReader(b, m)
}
