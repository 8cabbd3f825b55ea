// Package binio provides sticky-error little-endian binary readers and
// writers for the index serialization formats. A single error check after a
// run of field operations replaces per-field error plumbing; the first error
// wins and later operations become no-ops.
package binio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"unsafe"
)

// ErrCorrupt reports a structurally invalid stream.
var ErrCorrupt = errors.New("binio: corrupt stream")

// castagnoli is the CRC-32C polynomial table shared by every checksummed
// record format in this repository (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum computes the CRC-32C of b, the record checksum used by the
// dynamic index's write-ahead log.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// chunkBytes is the unit bulk sections move in. A Writer encodes a slice into
// one chunk and hands it to the stream in a single write; a Reader decodes one
// chunk per read, and on a stream that cannot say how long it is never
// allocates more than one chunk ahead of the bytes that actually arrived — a
// corrupt header declaring a gigantic element count costs one chunk and fails
// at the stream's real end, instead of a giant make() up front.
const chunkBytes = 64 << 10

// Writer serializes fixed-width values in little-endian order.
type Writer struct {
	w     *bufio.Writer
	err   error
	n     int64   // bytes accepted so far
	word  [8]byte // encode buffer of the scalar writers
	chunk []byte  // encode buffer of the bulk writers, allocated on first use
}

// NewWriter wraps w. Call Flush when done and check its error. A *Writer is
// returned as is, so an encoder handed the stream another encoder is in the
// middle of appends to it, sharing its byte count and its sticky error.
func NewWriter(w io.Writer) *Writer {
	if bw, ok := w.(*Writer); ok {
		return bw
	}
	return &Writer{w: bufio.NewWriter(w)}
}

// Write makes the Writer an io.Writer, for handing the stream to an encoder
// that takes one.
func (w *Writer) Write(p []byte) (int, error) {
	w.put(p)
	if w.err != nil {
		return 0, w.err
	}
	return len(p), nil
}

func (w *Writer) put(buf []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(buf)
	w.n += int64(len(buf))
}

// U8 writes one byte.
func (w *Writer) U8(v byte) {
	if w.err != nil {
		return
	}
	w.err = w.w.WriteByte(v)
	w.n++
}

// I32 writes an int32.
func (w *Writer) I32(v int32) {
	binary.LittleEndian.PutUint32(w.word[:], uint32(v))
	w.put(w.word[:4])
}

// I64 writes an int64.
func (w *Writer) I64(v int64) {
	binary.LittleEndian.PutUint64(w.word[:], uint64(v))
	w.put(w.word[:])
}

// F64 writes a float64.
func (w *Writer) F64(v float64) {
	binary.LittleEndian.PutUint64(w.word[:], math.Float64bits(v))
	w.put(w.word[:])
}

// Bytes writes raw bytes.
func (w *Writer) Bytes(b []byte) { w.put(b) }

// block returns the encode buffer for c elements of size bytes each.
func (w *Writer) block(c, size int) []byte {
	if w.chunk == nil {
		w.chunk = make([]byte, chunkBytes)
	}
	return w.chunk[:c*size]
}

// F32s writes a []float32 payload (no length prefix), one chunk per write.
func (w *Writer) F32s(vs []float32) {
	for len(vs) > 0 && w.err == nil {
		c := min(len(vs), chunkBytes/4)
		b := w.block(c, 4)
		for i, v := range vs[:c] {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
		w.put(b)
		vs = vs[c:]
	}
}

// F64s writes a []float64 payload (no length prefix), one chunk per write.
func (w *Writer) F64s(vs []float64) {
	for len(vs) > 0 && w.err == nil {
		c := min(len(vs), chunkBytes/8)
		b := w.block(c, 8)
		for i, v := range vs[:c] {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		w.put(b)
		vs = vs[c:]
	}
}

// I32s writes a []int32 payload (no length prefix), one chunk per write.
func (w *Writer) I32s(vs []int32) {
	for len(vs) > 0 && w.err == nil {
		c := min(len(vs), chunkBytes/4)
		b := w.block(c, 4)
		for i, v := range vs[:c] {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
		w.put(b)
		vs = vs[c:]
	}
}

// U16s writes a []uint16 payload (no length prefix), one chunk per write.
func (w *Writer) U16s(vs []uint16) {
	for len(vs) > 0 && w.err == nil {
		c := min(len(vs), chunkBytes/2)
		b := w.block(c, 2)
		for i, v := range vs[:c] {
			binary.LittleEndian.PutUint16(b[2*i:], v)
		}
		w.put(b)
		vs = vs[c:]
	}
}

// Written returns the number of bytes handed to the Writer so far, flushed or
// not. Formats that length-prefix an embedded payload compute the length in
// closed form, stream the payload through and check the two agree.
func (w *Writer) Written() int64 { return w.n }

// Err returns the first error encountered.
func (w *Writer) Err() error { return w.err }

// Flush flushes buffered output and returns the first error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader deserializes fixed-width values in little-endian order.
//
// A Reader knows how many bytes its stream can still deliver whenever the
// source can say: NewSizedReader is told, and NewReader asks a source with a
// bytes.Reader-style Len(). On such a sized stream a declared element count
// that needs more than what is left fails as corrupt before anything is
// allocated, and one that fits is allocated exactly once. A stream that cannot
// say (a pipe, a network body) is read through the same loop with
// chunk-bounded growth.
//
// A Reader made by NewBytesReader or MapFile reads bytes in place instead of
// from a stream: everything decodes as on a stream, except that F32sView,
// I32sView and U16sView hand out sections without copying them where they can.
type Reader struct {
	r      *bufio.Reader // nil when reading in place
	src    []byte        // what an in-place Reader reads; src[n:] is not yet decoded
	owner  any           // what keeps src valid when it is not Go memory (MapFile)
	viewed bool          // a view into src has been handed out
	err    error
	left   int64   // bytes the stream can still deliver; negative when unknown
	n      int64   // bytes delivered so far
	word   [8]byte // decode buffer of the scalar readers
	chunk  []byte  // decode buffer of the bulk readers, allocated on first use
}

// NewReader wraps r. A *Reader is returned as is, so a decoder handed the
// tail of a stream another decoder started keeps its byte accounting and its
// sticky error.
func NewReader(r io.Reader) *Reader {
	switch s := r.(type) {
	case *Reader:
		return s
	case interface{ Len() int }:
		return NewSizedReader(r, int64(s.Len()))
	}
	return NewSizedReader(r, -1)
}

// NewSizedReader wraps r, which will deliver exactly size more bytes (the
// rest of a regular file, say). A negative size means unknown.
func NewSizedReader(r io.Reader, size int64) *Reader {
	return &Reader{r: bufio.NewReader(r), left: size}
}

// NewBytesReader reads b in place. owner is what keeps b valid when it is not
// Go memory (MapFile passes its mapping); Backing hands it to whoever keeps a
// view. Nothing may write to b while views of it are in use.
func NewBytesReader(b []byte, owner any) *Reader {
	return &Reader{src: b, owner: owner, left: int64(len(b))}
}

// Read makes the Reader an io.Reader over the bytes not yet decoded, for
// handing the rest of the stream to a decoder that takes one. It does not
// touch the sticky error.
func (r *Reader) Read(p []byte) (int, error) {
	var n int
	var err error
	if r.r != nil {
		n, err = r.r.Read(p)
	} else if n = copy(p, r.src[r.n:]); n == 0 && len(p) > 0 {
		err = io.EOF
	}
	r.n += int64(n)
	if r.left >= 0 {
		r.left -= int64(n)
	}
	return n, err
}

// Consumed returns the number of bytes decoded so far, the counterpart of
// Writer.Written: a format that length-prefixes an embedded payload streams
// the payload's decoder through and checks it took exactly the declared
// length.
func (r *Reader) Consumed() int64 { return r.n }

func (r *Reader) get(buf []byte) bool {
	if r.err != nil {
		return false
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		r.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
		return false
	}
	return true
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if !r.get(r.word[:1]) {
		return 0
	}
	return r.word[0]
}

// I32 reads an int32.
func (r *Reader) I32() int32 {
	if !r.get(r.word[:4]) {
		return 0
	}
	return int32(binary.LittleEndian.Uint32(r.word[:]))
}

// I64 reads an int64.
func (r *Reader) I64() int64 {
	if !r.get(r.word[:]) {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(r.word[:]))
}

// F64 reads a float64.
func (r *Reader) F64() float64 {
	if !r.get(r.word[:]) {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(r.word[:]))
}

// reserve returns the capacity a bulk read of n elements of size bytes each
// allocates up front: all of it when the stream is known to hold that much,
// one chunk's worth when its length is unknown. A count the stream cannot
// deliver — or a negative one — fails the stream and reserves nothing.
func (r *Reader) reserve(n, size int) int {
	if r.err != nil {
		return 0
	}
	switch need := int64(n) * int64(size); {
	case n < 0:
		r.Fail("negative element count %d", n)
	case r.left < 0:
		return min(n, chunkBytes/size)
	case need > r.left:
		r.Fail("section of %d bytes declared, %d left in the stream", need, r.left)
	default:
		return n
	}
	return 0
}

// next reads the bytes of the next c elements of size bytes each into the
// decode buffer — an in-place Reader returns them where they are, which
// reserve has checked — or returns nil once the stream has failed.
func (r *Reader) next(c, size int) []byte {
	if r.err != nil {
		return nil
	}
	if r.r == nil {
		b := r.src[r.n : r.n+int64(c*size)]
		r.n += int64(len(b))
		r.left -= int64(len(b))
		return b
	}
	if r.chunk == nil {
		r.chunk = make([]byte, chunkBytes)
	}
	b := r.chunk[:c*size]
	if !r.get(b) {
		return nil
	}
	return b
}

// Expect reads len(want) bytes and fails the stream if they differ.
func (r *Reader) Expect(want []byte) {
	buf := make([]byte, len(want))
	if !r.get(buf) {
		return
	}
	for i := range want {
		if buf[i] != want[i] {
			r.err = fmt.Errorf("%w: bad magic %q", ErrCorrupt, buf)
			return
		}
	}
}

// U8s reads n raw bytes, or returns nil once the stream has failed.
func (r *Reader) U8s(n int) []uint8 {
	out := make([]uint8, 0, r.reserve(n, 1))
	if r.err != nil {
		return nil
	}
	for len(out) < n {
		c := min(n-len(out), chunkBytes)
		out = slices.Grow(out, c)[:len(out)+c] // no-op when the section was reserved whole
		if !r.get(out[len(out)-c:]) {
			return nil
		}
	}
	return out
}

// Raw is U8s under the name callers use for opaque bytes: a magic to
// dispatch on, a length-prefixed block.
func (r *Reader) Raw(n int) []byte { return r.U8s(n) }

// F32s reads n float32 values.
func (r *Reader) F32s(n int) []float32 {
	out := make([]float32, 0, r.reserve(n, 4))
	for len(out) < n {
		c := min(n-len(out), chunkBytes/4)
		b := r.next(c, 4)
		if b == nil {
			return nil
		}
		for i := 0; i < c; i++ {
			out = append(out, math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:])))
		}
	}
	return out
}

// F64s reads n float64 values.
func (r *Reader) F64s(n int) []float64 {
	out := make([]float64, 0, r.reserve(n, 8))
	for len(out) < n {
		c := min(n-len(out), chunkBytes/8)
		b := r.next(c, 8)
		if b == nil {
			return nil
		}
		for i := 0; i < c; i++ {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
		}
	}
	return out
}

// I32s reads n int32 values.
func (r *Reader) I32s(n int) []int32 {
	out := make([]int32, 0, r.reserve(n, 4))
	for len(out) < n {
		c := min(n-len(out), chunkBytes/4)
		b := r.next(c, 4)
		if b == nil {
			return nil
		}
		for i := 0; i < c; i++ {
			out = append(out, int32(binary.LittleEndian.Uint32(b[4*i:])))
		}
	}
	return out
}

// U16s reads n uint16 values.
func (r *Reader) U16s(n int) []uint16 {
	out := make([]uint16, 0, r.reserve(n, 2))
	for len(out) < n {
		c := min(n-len(out), chunkBytes/2)
		b := r.next(c, 2)
		if b == nil {
			return nil
		}
		for i := 0; i < c; i++ {
			out = append(out, binary.LittleEndian.Uint16(b[2*i:]))
		}
	}
	return out
}

// littleEndian reports whether the host stores numbers as the formats do, the
// first condition for a view.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// view moves past the next n elements of size bytes each and returns where
// they start — on an in-place Reader, on a little-endian host, when they are
// there and aligned to size. Otherwise it consumes nothing and returns nil, and
// the caller decodes a copy (which fails the stream if the section is not
// there).
func (r *Reader) view(n, size int) unsafe.Pointer {
	need := int64(n) * int64(size)
	if r.r != nil || !littleEndian || r.err != nil || n <= 0 || need > r.left {
		return nil
	}
	p := unsafe.Pointer(unsafe.SliceData(r.src[r.n:]))
	if uintptr(p)%uintptr(size) != 0 {
		return nil
	}
	r.n += need
	r.left -= need
	r.viewed = true
	return p
}

// F32sView reads n float32 values as F32s does, except that on an in-place
// Reader an aligned section comes back as a slice of the Reader's bytes rather
// than a copy. The caller must not write to the result, and must keep Backing
// reachable for as long as it uses it.
func (r *Reader) F32sView(n int) []float32 {
	if p := r.view(n, 4); p != nil {
		return unsafe.Slice((*float32)(p), n)
	}
	return r.F32s(n)
}

// I32sView is F32sView for int32 values.
func (r *Reader) I32sView(n int) []int32 {
	if p := r.view(n, 4); p != nil {
		return unsafe.Slice((*int32)(p), n)
	}
	return r.I32s(n)
}

// U16sView is F32sView for uint16 values.
func (r *Reader) U16sView(n int) []uint16 {
	if p := r.view(n, 2); p != nil {
		return unsafe.Slice((*uint16)(p), n)
	}
	return r.U16s(n)
}

// Section moves past the next n bytes and returns a Reader over exactly them:
// in place on an in-place Reader, with its owner, and a stream over a copy of
// them on a stream. A section r cannot deliver fails r and comes back empty.
func (r *Reader) Section(n int) *Reader {
	if r.r != nil {
		return NewReader(bytes.NewReader(r.Raw(n)))
	}
	if r.err != nil || n < 0 || int64(n) > r.left {
		r.Fail("section of %d bytes declared, %d left in the stream", n, r.left)
		return NewBytesReader(nil, nil)
	}
	sub := NewBytesReader(r.src[r.n:r.n+int64(n)], r.owner)
	r.n += int64(n)
	r.left -= int64(n)
	return sub
}

// Backing returns what must stay reachable for as long as the views this
// Reader handed out are in use: its owner once it has handed one out, nil
// before — and nil for views of Go memory, which keep their bytes alive
// themselves.
func (r *Reader) Backing() any {
	if !r.viewed {
		return nil
	}
	return r.owner
}

// Fail records a validation failure with context.
func (r *Reader) Fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }
