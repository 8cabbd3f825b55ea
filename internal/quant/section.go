package quant

import (
	"p2h/internal/binio"
	"p2h/internal/vec"
)

// Serialization of the quantization section shared by the tree formats'
// version 3 streams: a presence flag, the per-dimension grid tables, and the
// packed code mirror of the (already serialized) point rows.

// WriteSection appends the quantization section for qz and its code mirror.
func WriteSection(bw *binio.Writer, qz *Quantizer, codes []uint8) {
	lo, step, halfE := qz.Tables()
	bw.U8(1)
	bw.F32s(lo)
	bw.F32s(step)
	bw.F64s(halfE)
	bw.Bytes(codes)
}

// SectionBytes is the exact size of the section WriteSection emits for the
// mirror of an n x d matrix: the flag, two float32 and one float64 table of d
// entries, and one code byte per coordinate.
func SectionBytes(n, d int) int64 {
	return 1 + int64(d)*(4+4+8) + int64(n)*int64(d)
}

// ReadSection reads a quantization section and returns the validated
// quantizer and code mirror for points. Validation is semantic, not just
// structural: the loaded tables must actually bound the decode error of
// every (point, code) pair, because an inconsistent mirror would silently
// prune true neighbors at query time — the one failure mode worse than a
// corrupt file. A zero presence flag returns nils (an unquantized stream).
func ReadSection(br *binio.Reader, points *vec.Matrix) (*Quantizer, []uint8) {
	switch br.U8() {
	case 0:
		return nil, nil
	case 1:
	default:
		br.Fail("bad quantization flag")
		return nil, nil
	}
	d := points.D
	lo := br.F32s(d)
	step := br.F32s(d)
	halfE := br.F64s(d)
	codes := br.U8s(points.N * d)
	if br.Err() != nil {
		return nil, nil
	}
	qz, err := NewQuantizerFromTables(lo, step, halfE)
	if err != nil {
		br.Fail("%v", err)
		return nil, nil
	}
	if err := qz.Validate(points, codes); err != nil {
		br.Fail("%v", err)
		return nil, nil
	}
	return qz, codes
}
