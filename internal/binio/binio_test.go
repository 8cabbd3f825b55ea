package binio

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U8(7)
	w.I32(-12345)
	w.I64(1 << 40)
	w.F64(math.Pi)
	w.Bytes([]byte("MAGIC123"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	if got := r.U8(); got != 7 {
		t.Fatalf("u8 %d", got)
	}
	if got := r.I32(); got != -12345 {
		t.Fatalf("i32 %d", got)
	}
	if got := r.I64(); got != 1<<40 {
		t.Fatalf("i64 %d", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Fatalf("f64 %v", got)
	}
	r.Expect([]byte("MAGIC123"))
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTripSlices(t *testing.T) {
	f := func(f32 []float32, f64 []float64, i32 []int32) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.F32s(f32)
		w.F64s(f64)
		w.I32s(i32)
		if w.Flush() != nil {
			return false
		}
		r := NewReader(&buf)
		g32 := r.F32s(len(f32))
		g64 := r.F64s(len(f64))
		gi := r.I32s(len(i32))
		if r.Err() != nil {
			return false
		}
		for i := range f32 {
			if math.Float32bits(g32[i]) != math.Float32bits(f32[i]) {
				return false
			}
		}
		for i := range f64 {
			if math.Float64bits(g64[i]) != math.Float64bits(f64[i]) {
				return false
			}
		}
		for i := range i32 {
			if gi[i] != i32[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTruncatedStreamFails(t *testing.T) {
	r := NewReader(strings.NewReader("ab"))
	r.I32()
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", r.Err())
	}
	// Sticky: later reads stay failed and return zero values.
	if got := r.I64(); got != 0 {
		t.Fatalf("sticky reader must return zero, got %d", got)
	}
}

func TestExpectMismatch(t *testing.T) {
	r := NewReader(strings.NewReader("WRONG123"))
	r.Expect([]byte("MAGIC123"))
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", r.Err())
	}
}

func TestFailFormatsContext(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	r.Fail("n=%d out of range", 42)
	if !errors.Is(r.Err(), ErrCorrupt) || !strings.Contains(r.Err().Error(), "n=42") {
		t.Fatalf("got %v", r.Err())
	}
	// First error wins.
	r.Fail("second")
	if strings.Contains(r.Err().Error(), "second") {
		t.Fatal("second Fail must not overwrite the first")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

func TestWriterStickyError(t *testing.T) {
	w := NewWriter(failWriter{})
	// Overflow the 4KB bufio buffer to force the underlying write.
	big := make([]float64, 1024)
	w.F64s(big)
	w.F64s(big)
	if w.Err() == nil && w.Flush() == nil {
		t.Fatal("expected write error to surface")
	}
}

// allocatedBy reports how many heap bytes f allocates in total.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// pipeReader hides everything but Read, as a network body would.
type pipeReader struct{ r io.Reader }

func (p pipeReader) Read(b []byte) (int, error) { return p.r.Read(b) }

// TestSizedStreamRefusesBeforeAllocating: on a stream that says how long it is
// a declared count it cannot deliver fails without the make(), and one it can
// deliver is allocated once, not grown.
func TestSizedStreamRefusesBeforeAllocating(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	vals := make([]float32, 200_000)
	w.F32s(vals)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()

	for name, read := range map[string]func(r *Reader, n int) int{
		"F32s": func(r *Reader, n int) int { return len(r.F32s(n)) },
		"I32s": func(r *Reader, n int) int { return len(r.I32s(n)) },
		"F64s": func(r *Reader, n int) int { return len(r.F64s(n/2)) * 2 },
		"U8s":  func(r *Reader, n int) int { return len(r.U8s(n*4)) / 4 },
	} {
		var r *Reader
		// One element more than the stream holds: nothing beyond the Reader
		// itself (its bufio buffer) may be allocated.
		got := allocatedBy(func() {
			r = NewReader(bytes.NewReader(payload))
			read(r, len(vals)+2)
		})
		if !errors.Is(r.Err(), ErrCorrupt) || !strings.Contains(r.Err().Error(), "left in the stream") {
			t.Fatalf("%s: oversized count on a sized stream: %v", name, r.Err())
		}
		if got > chunkBytes {
			t.Errorf("%s: refusing an oversized count allocated %d bytes", name, got)
		}
		// Exactly what the stream holds: one allocation of the section, plus
		// the Reader and its decode chunk.
		got = allocatedBy(func() {
			r = NewReader(bytes.NewReader(payload))
			if n := read(r, len(vals)); n != len(vals) || r.Err() != nil {
				t.Fatalf("%s: read %d of %d: %v", name, n, len(vals), r.Err())
			}
		})
		if limit := uint64(len(payload) + 2*chunkBytes); got > limit {
			t.Errorf("%s: reading a %d-byte section allocated %d bytes", name, len(payload), got)
		}
	}

	// NewSizedReader is told what NewReader would have asked.
	r := NewSizedReader(pipeReader{bytes.NewReader(payload)}, int64(len(payload)))
	if r.F32s(len(vals) + 1); !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("NewSizedReader: oversized count: %v", r.Err())
	}
}

// TestUnsizedStreamGrowsWithTheBytes: a source that cannot say how long it is
// goes through the same loop; a corrupt count costs at most the bytes that
// really arrived plus one chunk before the stream's end is found.
func TestUnsizedStreamGrowsWithTheBytes(t *testing.T) {
	payload := make([]byte, 4*1000)
	var r *Reader
	got := allocatedBy(func() {
		r = NewReader(pipeReader{bytes.NewReader(payload)})
		r.F32s(1 << 28)
	})
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("want ErrCorrupt at the stream's real end, got %v", r.Err())
	}
	if limit := uint64(len(payload) + 3*chunkBytes); got > limit {
		t.Errorf("a 2^28 count over %d real bytes allocated %d", len(payload), got)
	}
	r = NewReader(pipeReader{bytes.NewReader(payload)})
	if vs := r.I32s(1000); len(vs) != 1000 || r.Err() != nil {
		t.Fatalf("unsized read: %d values, %v", len(vs), r.Err())
	}
	if r.F32s(-1); !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("negative count: %v", r.Err())
	}
}

// TestNestedCodecsShareOneStream: NewReader and NewWriter hand back a codec
// they are given, so an embedded payload's decoder keeps the outer stream's
// byte accounting, and an embedded encoder's bytes are counted where the
// length prefix was written.
func TestNestedCodecsShareOneStream(t *testing.T) {
	var buf bytes.Buffer
	outer := NewWriter(&buf)
	outer.I32(7)
	inner := NewWriter(outer)
	if inner != outer {
		t.Fatal("NewWriter(*Writer) must return the same Writer")
	}
	start := outer.Written()
	inner.F64s([]float64{1, 2, 3})
	if err := inner.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := outer.Written() - start; got != 24 {
		t.Fatalf("embedded encoder wrote %d bytes, want 24", got)
	}
	if _, err := io.WriteString(outer, "tail"); err != nil || outer.Flush() != nil || buf.Len() != 4+24+4 {
		t.Fatalf("Writer as io.Writer: err %v, %d bytes", err, buf.Len())
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	if r.I32() != 7 {
		t.Fatal("outer header")
	}
	in := NewReader(r)
	if in != r {
		t.Fatal("NewReader(*Reader) must return the same Reader")
	}
	if in.F64s(4); !errors.Is(r.Err(), ErrCorrupt) { // 32 bytes declared, 28 left
		t.Fatalf("inner decoder lost the outer stream's length: %v", r.Err())
	}
	r = NewReader(bytes.NewReader(buf.Bytes()))
	r.I32()
	r.F64s(3)
	tail, err := io.ReadAll(r)
	if err != nil || string(tail) != "tail" {
		t.Fatalf("Reader as io.Reader: %q, %v", tail, err)
	}
}
