package dynamic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"p2h/internal/attr"
	"p2h/internal/binio"
)

// walOp is one logical mutation used to drive WAL round-trip tests.
type walOp struct {
	op     byte
	handle int32
	vec    []float32
}

func randomWalOps(rng *rand.Rand, dim, n int) []walOp {
	ops := make([]walOp, 0, n)
	next := int32(0)
	for i := 0; i < n; i++ {
		if next == 0 || rng.Intn(3) > 0 {
			v := make([]float32, dim)
			for j := range v {
				v[j] = rng.Float32()*2 - 1
			}
			ops = append(ops, walOp{op: WALOpInsert, handle: next, vec: v})
			next++
		} else {
			ops = append(ops, walOp{op: WALOpDelete, handle: rng.Int31n(next)})
		}
	}
	return ops
}

func appendOps(t *testing.T, w *WAL, ops []walOp) {
	t.Helper()
	for _, op := range ops {
		var err error
		if op.op == WALOpInsert {
			err = w.AppendInsert(op.handle, op.vec, attr.Point{})
		} else {
			err = w.AppendDelete(op.handle)
		}
		if err != nil {
			t.Fatalf("append: %v", err)
		}
	}
}

func decodeAll(t *testing.T, path string) ([]walOp, WALReplay) {
	t.Helper()
	var got []walOp
	rep, err := DecodeWALFile(path, func(op byte, handle int32, vec []float32, at attr.Point) error {
		got = append(got, walOp{op: op, handle: handle, vec: append([]float32(nil), vec...)})
		return nil
	})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got, rep
}

func TestWALRoundTrip(t *testing.T) {
	const dim = 5
	path := filepath.Join(t.TempDir(), "ix.wal")
	rng := rand.New(rand.NewSource(1))
	ops := randomWalOps(rng, dim, 200)

	w, err := CreateWAL(path, dim, 7, WALSyncNone)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	appendOps(t, w, ops)
	if got := w.Records(); got != int64(len(ops)) {
		t.Fatalf("Records() = %d, want %d", got, len(ops))
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	got, rep := decodeAll(t, path)
	if rep.Header.Dim != dim || rep.Header.Base != 7 {
		t.Fatalf("header = %+v, want dim %d base 7", rep.Header, dim)
	}
	if rep.TornBytes != 0 {
		t.Fatalf("TornBytes = %d on a clean log", rep.TornBytes)
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d records, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i].op != ops[i].op || got[i].handle != ops[i].handle {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], ops[i])
		}
		if ops[i].op == WALOpInsert {
			for j := range ops[i].vec {
				if got[i].vec[j] != ops[i].vec[j] {
					t.Fatalf("record %d vec[%d] = %v, want %v", i, j, got[i].vec[j], ops[i].vec[j])
				}
			}
		}
	}

	// Reopen resumes the counters and keeps appending after the old tail.
	w2, rep2, err := OpenWAL(path, dim, 999, WALSyncNone)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if rep2.Records != len(ops) || w2.Records() != int64(len(ops)) {
		t.Fatalf("reopen records = %d/%d, want %d", rep2.Records, w2.Records(), len(ops))
	}
	if w2.Base() != 7 {
		t.Fatalf("reopen base = %d, want existing header base 7 (not caller's)", w2.Base())
	}
	if err := w2.AppendDelete(0); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}

	// Truncation empties the log and records the new snapshot boundary.
	if err := w2.TruncateTo(42); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if w2.Records() != 0 || w2.Base() != 42 {
		t.Fatalf("after truncate: records %d base %d", w2.Records(), w2.Base())
	}
	if err := w2.AppendInsert(42, make([]float32, dim), attr.Point{}); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	w2.Close()
	got, rep = decodeAll(t, path)
	if rep.Header.Base != 42 || len(got) != 1 || got[0].handle != 42 {
		t.Fatalf("after truncate+append: base %d records %+v", rep.Header.Base, got)
	}
}

func TestWALTornTail(t *testing.T) {
	const dim = 3
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.wal")
	w, err := CreateWAL(path, dim, 0, WALSyncNone)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	ops := randomWalOps(rand.New(rand.NewSource(2)), dim, 20)
	appendOps(t, w, ops)
	w.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Cut the file mid-final-record at every possible torn length.
	last := walRecordLen(ops[len(ops)-1].op, dim)
	for cut := int64(1); cut < last; cut++ {
		size := int64(len(full)) - last + cut
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.wal", cut))
		if err := os.WriteFile(torn, full[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		var n int
		rep, err := DecodeWALFile(torn, func(byte, int32, []float32, attr.Point) error { n++; return nil })
		if err != nil {
			t.Fatalf("cut %d: decode: %v", cut, err)
		}
		if n != len(ops)-1 || rep.TornBytes != cut {
			t.Fatalf("cut %d: decoded %d records torn %d, want %d records torn %d",
				cut, n, rep.TornBytes, len(ops)-1, cut)
		}

		// OpenWAL drops the torn tail; the next append lands cleanly.
		w2, rep2, err := OpenWAL(torn, dim, 0, WALSyncNone)
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		if rep2.Records != len(ops)-1 {
			t.Fatalf("cut %d: open replayed %d records", cut, rep2.Records)
		}
		if err := w2.AppendDelete(0); err != nil {
			t.Fatalf("cut %d: append: %v", cut, err)
		}
		w2.Close()
		n = 0
		rep, err = DecodeWALFile(torn, func(byte, int32, []float32, attr.Point) error { n++; return nil })
		if err != nil || rep.TornBytes != 0 || n != len(ops) {
			t.Fatalf("cut %d: after repair decode: n=%d torn=%d err=%v", cut, n, rep.TornBytes, err)
		}
	}
}

func TestWALCorruptionDetected(t *testing.T) {
	const dim = 2
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.wal")
	w, err := CreateWAL(path, dim, 0, WALSyncNone)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	appendOps(t, w, randomWalOps(rand.New(rand.NewSource(3)), dim, 10))
	w.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flipping any single bit anywhere in the file must surface as
	// ErrCorrupt: header (magic, dim, base, crc) and every record byte are
	// all covered by a checksum. No flip may decode cleanly to the same
	// record count, and none may panic.
	for off := 0; off < len(full); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), full...)
			mut[off] ^= 1 << bit
			rep, err := DecodeWAL(bytes.NewReader(mut), nil)
			if err == nil {
				// A flip in the final record's tail bytes can masquerade as
				// a torn tail only if it corrupted the opcode into an
				// invalid... no: invalid opcodes error. A flip can shorten
				// the decode only by turning a non-final record invalid,
				// which errors. The sole legal clean decode is one that
				// still saw every record — impossible, every byte is
				// checksummed.
				t.Fatalf("flip byte %d bit %d: decode succeeded (%d records, torn %d)",
					off, bit, rep.Records, rep.TornBytes)
			}
			if !errors.Is(err, binio.ErrCorrupt) {
				t.Fatalf("flip byte %d bit %d: error %v does not wrap ErrCorrupt", off, bit, err)
			}
		}
	}
}

func TestWALShortFileIsEmpty(t *testing.T) {
	dir := t.TempDir()
	for _, size := range []int{0, 1, walHeaderLen - 1} {
		path := filepath.Join(dir, fmt.Sprintf("short-%d.wal", size))
		if err := os.WriteFile(path, make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := DecodeWALFile(path, func(byte, int32, []float32, attr.Point) error {
			t.Fatalf("size %d: emit called", size)
			return nil
		})
		if err != nil || rep.Records != 0 {
			t.Fatalf("size %d: rep=%+v err=%v, want empty", size, rep, err)
		}
		// OpenWAL recreates the header over the remnant.
		w, _, err := OpenWAL(path, 4, 11, WALSyncNone)
		if err != nil {
			t.Fatalf("size %d: open: %v", size, err)
		}
		if w.Base() != 11 {
			t.Fatalf("size %d: base %d", size, w.Base())
		}
		w.Close()
	}
}

func TestWALOpenRejectsDimMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ix.wal")
	w, err := CreateWAL(path, 4, 0, WALSyncNone)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, _, err := OpenWAL(path, 8, 0, WALSyncNone); !errors.Is(err, binio.ErrCorrupt) {
		t.Fatalf("dim-mismatch open: err = %v, want ErrCorrupt", err)
	}
}

func TestWALAppendRejectsWrongWidth(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ix.wal")
	w, err := CreateWAL(path, 4, 0, WALSyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendInsert(0, make([]float32, 3), attr.Point{}); err == nil {
		t.Fatal("wrong-width insert accepted")
	}
}

// buildWALBytes assembles an in-memory log for fuzz seeds and corpus
// generation.
func buildWALBytes(dim int, base uint64, ops []walOp, extra []byte) []byte {
	var buf bytes.Buffer
	buf.Write(encodeWALHeader(dim, base))
	for _, op := range ops {
		n := walRecordLen(op.op, dim)
		b := make([]byte, n)
		b[0] = op.op
		binary.LittleEndian.PutUint32(b[1:], uint32(op.handle))
		if op.op == WALOpInsert {
			for i, v := range op.vec {
				binary.LittleEndian.PutUint32(b[5+i*4:], math.Float32bits(v))
			}
		}
		binary.LittleEndian.PutUint32(b[n-4:], binio.Checksum(b[:n-4]))
		buf.Write(b)
	}
	buf.Write(extra)
	return buf.Bytes()
}

var genCorpus = flag.Bool("gen-wal-corpus", false, "regenerate testdata/fuzz/FuzzWALDecode seed corpus")

// TestGenerateWALFuzzCorpus rewrites the checked-in seed corpus when run
// with -gen-wal-corpus. The seeds mirror the f.Add cases so that plain
// `go test -fuzz=FuzzWALDecode` starts from interesting structure even
// before new coverage is discovered.
func TestGenerateWALFuzzCorpus(t *testing.T) {
	if !*genCorpus {
		t.Skip("run with -gen-wal-corpus to regenerate")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWALDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range walFuzzSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func walFuzzSeeds() map[string][]byte {
	dim := 3
	ops := []walOp{
		{op: WALOpInsert, handle: 0, vec: []float32{1, -2, 0.5}},
		{op: WALOpInsert, handle: 1, vec: []float32{0, 0, 0}},
		{op: WALOpDelete, handle: 0},
	}
	clean := buildWALBytes(dim, 5, ops, nil)
	torn := clean[:len(clean)-3]
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)-1] ^= 0x40
	badOp := buildWALBytes(dim, 5, ops, []byte{9, 0, 0, 0, 0, 1, 2, 3, 4})
	at := attr.Point{Tags: []string{"torn"}}
	payload := attr.AppendPoint(nil, &at)
	rec := append([]byte{WALOpInsertAttrs, 2, 0, 0, 0}, make([]byte, 4*dim)...)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	withAttrs := buildWALBytes(dim, 5, ops, binary.LittleEndian.AppendUint32(rec, binio.Checksum(rec)))
	return map[string][]byte{
		"seed-attrs":      withAttrs,
		"seed-torn-attrs": withAttrs[:len(withAttrs)-3],
		"seed-clean":      clean,
		"seed-torn":       torn,
		"seed-flip":       flipped,
		"seed-bad-op":     badOp,
		"seed-header":     encodeWALHeader(dim, 0),
		"seed-short":      clean[:walHeaderLen-2],
	}
}

// FuzzWALDecode asserts the decoder's contract over arbitrary bytes: it
// never panics, never reports corruption as a clean decode, and classifies
// every stream as exactly one of clean / torn-tail / ErrCorrupt.
func FuzzWALDecode(f *testing.F) {
	for _, data := range walFuzzSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var n int
		var vecWidths []int
		rep, err := DecodeWAL(bytes.NewReader(data), func(op byte, handle int32, vec []float32, at attr.Point) error {
			n++
			if op == WALOpInsert {
				vecWidths = append(vecWidths, len(vec))
			}
			if handle < 0 {
				t.Fatalf("emit negative handle %d", handle)
			}
			return nil
		})
		if err != nil {
			if !errors.Is(err, binio.ErrCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if n != rep.Records {
			t.Fatalf("emitted %d records, replay says %d", n, rep.Records)
		}
		for _, w := range vecWidths {
			if w != rep.Header.Dim {
				t.Fatalf("emit vec width %d, header dim %d", w, rep.Header.Dim)
			}
		}
		// A torn tail is a proper prefix of one record — at most the
		// largest, an insert carrying the largest attribute payload — and
		// lies inside the input.
		longest := walRecordLen(WALOpInsert, rep.Header.Dim) + 4 + attr.MaxPointEncoded
		if rep.TornBytes < 0 || rep.TornBytes >= longest || rep.TornBytes > int64(len(data)-walHeaderLen) {
			t.Fatalf("torn bytes %d out of range for dim %d", rep.TornBytes, rep.Header.Dim)
		}
	})
}

// TestWALAttributedInsert: one AppendInsert writes op=1 for an empty payload
// and op=3 otherwise, DecodeWAL hands the payload back as it went in, and a
// framed payload the payload rule refuses decodes as corruption.
func TestWALAttributedInsert(t *testing.T) {
	const dim = 3
	path := filepath.Join(t.TempDir(), "ix.wal")
	w, err := CreateWAL(path, dim, 0, WALSyncNone)
	if err != nil {
		t.Fatal(err)
	}
	at := attr.Point{Tags: []string{"a", ""}, Ints: map[string]int64{"n": -3}, Floats: map[string]float64{"f": 0.5}}
	v := []float32{1, 2, 3}
	for h, p := range []attr.Point{{}, at, {Tags: []string{}}} {
		if err := w.AppendInsert(int32(h), v, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var ops []byte
	var got []attr.Point
	if _, err := DecodeWALFile(path, func(op byte, _ int32, _ []float32, p attr.Point) error {
		ops, got = append(ops, op), append(got, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ops, []byte{WALOpInsert, WALOpInsertAttrs, WALOpInsert}) {
		t.Fatalf("opcodes %v", ops)
	}
	enc := attr.AppendPoint(nil, &at)
	if !got[0].Empty() || !got[2].Empty() || !bytes.Equal(attr.AppendPoint(nil, &got[1]), enc) {
		t.Fatalf("decoded payloads %+v", got)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := walHeaderLen + 3*walRecordLen(WALOpInsert, dim) + 4 + int64(len(enc)); st.Size() != want {
		t.Fatalf("log is %d bytes, want %d", st.Size(), want)
	}

	// The log frames whatever it is handed; the decoder holds it to the rule.
	w, err = CreateWAL(path, dim, 0, WALSyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendInsert(0, v, attr.Point{Tags: []string{strings.Repeat("t", 5000)}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeWALFile(path, nil); !errors.Is(err, binio.ErrCorrupt) {
		t.Fatalf("decoding a refused payload: %v, want ErrCorrupt", err)
	}
}
