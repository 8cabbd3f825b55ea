//go:build !unix

package binio

import "os"

// MapFile maps nothing on this system: it returns nil, and the caller reads
// the file as a stream.
func MapFile(f *os.File, size int64) *Reader { return nil }
