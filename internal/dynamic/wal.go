package dynamic

// The write-ahead log of a dynamic index. Every Insert/Delete applied through
// a durable serving stack is appended here as one checksummed record before
// the mutation is acknowledged, so a crashed process replays the log on top
// of its latest snapshot and recovers the exact acknowledged state.
//
// File layout (little-endian throughout, one header then records to EOF):
//
//	header:  magic "P2HWL001" | dim u32 | base u64 | crc32c(previous 20 bytes)
//	insert:  op=1 | handle u32 | dim float32s | crc32c(op..vector)
//	delete:  op=2 | handle u32 |               crc32c(op..handle)
//	insert+: op=3 | handle u32 | dim float32s | alen u32 | alen attr bytes | crc32c(op..attrs)
//
// op=3 is an insert carrying a non-empty attribute payload (internal/attr's
// point wire encoding); alen is bounded by attr.MaxPointEncoded so a corrupt
// length fails instead of sizing a huge read. An insert without attributes
// is op=1, so a log without attributes reads as it did before op=3 existed.
//
// dim is the raw point width every insert record carries; base is the
// index's handle count (rows ever inserted) when the log was created or last
// truncated, so replay can tell a log that belongs to an older snapshot
// generation (records below the restored handle count are already inside the
// snapshot and are skipped) from one that skips ahead of it (a gap: records
// are missing, the pair is corrupt).
//
// Torn tails are expected, corruption is not: a crash mid-append leaves a
// prefix of the final record, which DecodeWAL reports as torn bytes and
// OpenWAL truncates away — by construction such a record was never
// acknowledged (acknowledgement follows the completed write). A record whose
// bytes are all present but whose checksum, opcode or shape is wrong can only
// be corruption and fails with an error wrapping binio.ErrCorrupt; it is
// never silently dropped.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"p2h/internal/attr"
	"p2h/internal/binio"
	"p2h/internal/faultinject"
)

// WAL record opcodes.
const (
	WALOpInsert byte = 1
	WALOpDelete byte = 2
	// WALOpInsertAttrs is an insert whose record additionally carries the
	// point's attribute payload (length-prefixed, encoding owned by
	// internal/attr).
	WALOpInsertAttrs byte = 3
)

var walMagic = []byte("P2HWL001")

// walHeaderLen is the fixed header size: magic(8) + dim(4) + base(8) + crc(4).
const walHeaderLen = 8 + 4 + 8 + 4

// maxWALDim bounds the header-declared vector width, mirroring the snapshot
// serializer's guard, so a corrupt header fails instead of sizing huge reads.
const maxWALDim = 1 << 20

// WALSync is the log's fsync policy.
type WALSync int

const (
	// WALSyncAlways makes every appended record durable before it is
	// acknowledged: no acknowledged mutation is lost even to a machine
	// crash. Durability is reached by calling WaitDurable after the append;
	// concurrent waiters share one fsync (group commit), so under load many
	// mutations amortize a single disk flush while a lone writer degrades to
	// the classical fsync-per-append.
	WALSyncAlways WALSync = iota
	// WALSyncNone leaves flushing to the OS: acknowledged mutations survive
	// a process crash (the page cache persists them) but a machine crash may
	// lose a recent suffix. Mutations cost one write call.
	WALSyncNone
)

// WALHeader is the decoded fixed-size log header.
type WALHeader struct {
	// Dim is the raw vector width of every insert record.
	Dim int
	// Base is the index handle count at log creation/truncation.
	Base uint64
}

// WALReplay reports what decoding a log found.
type WALReplay struct {
	Header WALHeader
	// Records is the number of intact records decoded.
	Records int
	// TornBytes is the length of the incomplete final record dropped from
	// the tail (zero for a cleanly closed log).
	TornBytes int64
}

// WAL is an open write-ahead log. Appends are not safe for concurrent use;
// the serving engine serializes them under its mutation lock. WaitDurable is
// safe for concurrent use — that is the point of group commit. Records, Base
// and Syncs are safe to read concurrently (metrics scrape them live).
type WAL struct {
	f    *os.File
	path string
	dim  int
	mode WALSync

	base    atomic.Uint64
	records atomic.Int64
	syncs   atomic.Int64
	buf     []byte
	err     error // sticky append failure; cleared by TruncateTo

	// Group-commit state (WALSyncAlways only). Appends assign monotone
	// sequence numbers; WaitDurable elects the first waiter as leader, which
	// fsyncs once for every record appended so far while followers sleep on
	// the condition, then advances synced and wakes them. gcMu guards the
	// four fields below; the append path touches them only to bump appended.
	gcMu     sync.Mutex
	gcCond   sync.Cond // waiters for synced to advance; Broadcast by leader
	appended uint64    // seq of the latest fully written record
	synced   uint64    // seq through which records are known on disk
	syncing  bool      // a leader's fsync is in flight
	syncErr  error     // sticky group-commit failure; cleared by TruncateTo
}

func newWAL(f *os.File, path string, dim int, mode WALSync) *WAL {
	w := &WAL{f: f, path: path, dim: dim, mode: mode}
	w.gcCond.L = &w.gcMu
	return w
}

// walRecordLen is the encoded size of one record of the given opcode.
func walRecordLen(op byte, dim int) int64 {
	n := int64(1 + 4 + 4) // op + handle + crc
	if op == WALOpInsert {
		n += int64(dim) * 4
	}
	return n
}

func encodeWALHeader(dim int, base uint64) []byte {
	b := make([]byte, walHeaderLen)
	copy(b, walMagic)
	binary.LittleEndian.PutUint32(b[8:], uint32(dim))
	binary.LittleEndian.PutUint64(b[12:], base)
	binary.LittleEndian.PutUint32(b[20:], binio.Checksum(b[:20]))
	return b
}

func decodeWALHeader(b []byte) (WALHeader, error) {
	if len(b) < walHeaderLen {
		return WALHeader{}, fmt.Errorf("%w: wal header truncated at %d bytes", binio.ErrCorrupt, len(b))
	}
	for i := range walMagic {
		if b[i] != walMagic[i] {
			return WALHeader{}, fmt.Errorf("%w: bad wal magic %q", binio.ErrCorrupt, b[:8])
		}
	}
	if got, want := binary.LittleEndian.Uint32(b[20:]), binio.Checksum(b[:20]); got != want {
		return WALHeader{}, fmt.Errorf("%w: wal header checksum %08x, want %08x", binio.ErrCorrupt, got, want)
	}
	dim := int(int32(binary.LittleEndian.Uint32(b[8:])))
	if dim <= 0 || dim > maxWALDim {
		return WALHeader{}, fmt.Errorf("%w: wal header dim %d", binio.ErrCorrupt, dim)
	}
	return WALHeader{Dim: dim, Base: binary.LittleEndian.Uint64(b[12:])}, nil
}

// DecodeWAL decodes a log stream, calling emit for every intact record in
// order. Structural corruption — bad magic, checksum mismatch, unknown
// opcode, an oversized attribute length — returns an error wrapping
// binio.ErrCorrupt; an incomplete final record (a torn append from a crash)
// is not an error and is reported via WALReplay.TornBytes. emit may be nil to
// count records only; a non-nil error from emit stops the decode and is
// returned as-is. at is the decoded attribute payload of an op=3 record (the
// zero Point otherwise); a payload that does not decode, or that the payload
// rule (attr.Point.Validate) refuses, is corruption like a bad checksum, so
// a replay that decodes the whole log first applies none of a log with one.
// vec is valid only for the duration of the call.
func DecodeWAL(r io.Reader, emit func(op byte, handle int32, vec []float32, at attr.Point) error) (WALReplay, error) {
	var rep WALReplay
	head := make([]byte, walHeaderLen)
	if n, err := io.ReadFull(r, head); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return rep, fmt.Errorf("%w: wal header truncated at %d bytes", binio.ErrCorrupt, n)
		}
		return rep, err
	}
	h, err := decodeWALHeader(head)
	if err != nil {
		return rep, err
	}
	rep.Header = h

	// rec is one reusable record buffer; read appends the record's next n
	// bytes to it. A record the stream ends inside is a torn tail — a prefix
	// of an append that was never acknowledged — and ends the decode
	// cleanly, as does an end between records (zero torn bytes). Only a
	// record whose bytes are all present can fail its checksum.
	rec := make([]byte, 0, walRecordLen(WALOpInsert, h.Dim))
	read := func(n int) (done bool, err error) {
		start := len(rec)
		rec = slices.Grow(rec, n)[:start+n]
		got, err := io.ReadFull(r, rec[start:])
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			rep.TornBytes = int64(start + got)
			return true, nil
		}
		return err != nil, err
	}
	vec := make([]float32, h.Dim)
	for {
		rec = rec[:0]
		if done, err := read(1); done {
			return rep, err
		}
		op := rec[0]
		n := 4 // handle
		switch op {
		case WALOpInsert:
			n += 4 * h.Dim
		case WALOpInsertAttrs:
			n += 4*h.Dim + 4 // and the payload length
		case WALOpDelete:
		default:
			return rep, fmt.Errorf("%w: wal record %d: unknown opcode %d", binio.ErrCorrupt, rep.Records, op)
		}
		if done, err := read(n); done {
			return rep, err
		}
		if op == WALOpInsertAttrs {
			alen := int(binary.LittleEndian.Uint32(rec[len(rec)-4:]))
			if alen <= 0 || alen > attr.MaxPointEncoded {
				return rep, fmt.Errorf("%w: wal record %d: attribute payload length %d out of range",
					binio.ErrCorrupt, rep.Records, alen)
			}
			if done, err := read(alen); done {
				return rep, err
			}
		}
		if done, err := read(4); done {
			return rep, err
		}
		crcOff := len(rec) - 4
		if got, want := binary.LittleEndian.Uint32(rec[crcOff:]), binio.Checksum(rec[:crcOff]); got != want {
			return rep, fmt.Errorf("%w: wal record %d: checksum %08x, want %08x",
				binio.ErrCorrupt, rep.Records, got, want)
		}
		handle := int32(binary.LittleEndian.Uint32(rec[1:]))
		if handle < 0 {
			return rep, fmt.Errorf("%w: wal record %d: negative handle %d", binio.ErrCorrupt, rep.Records, handle)
		}
		var v []float32
		var at attr.Point
		if op != WALOpDelete {
			for i := range vec {
				vec[i] = math.Float32frombits(binary.LittleEndian.Uint32(rec[5+i*4:]))
			}
			v = vec
		}
		if op == WALOpInsertAttrs {
			pt, err := attr.DecodePoint(rec[5+h.Dim*4+4 : crcOff])
			if err == nil {
				err = pt.Validate()
			}
			if err != nil {
				return rep, fmt.Errorf("%w: wal record %d: %v", binio.ErrCorrupt, rep.Records, err)
			}
			at = *pt
		}
		if emit != nil {
			if err := emit(op, handle, v, at); err != nil {
				return rep, err
			}
		}
		rep.Records++
	}
}

// DecodeWALFile decodes the log at path; see DecodeWAL. A missing file
// returns os.ErrNotExist; an empty file decodes as zero records under a
// zero-value header (the state a crash can leave mid-truncation, after the
// snapshot already absorbed every logged record).
func DecodeWALFile(path string, emit func(op byte, handle int32, vec []float32, at attr.Point) error) (WALReplay, error) {
	f, err := os.Open(path)
	if err != nil {
		return WALReplay{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return WALReplay{}, err
	}
	if st.Size() < walHeaderLen {
		// Shorter than a header: either a fresh file or the remnant of a
		// crash during TruncateTo, whose records the snapshot that triggered
		// the truncation already persisted. Nothing to replay.
		return WALReplay{}, nil
	}
	return DecodeWAL(f, emit)
}

// CreateWAL creates (or truncates) a log at path for vectors of width dim,
// recording base as the owning index's current handle count.
func CreateWAL(path string, dim int, base uint64, mode WALSync) (*WAL, error) {
	if dim <= 0 || dim > maxWALDim {
		return nil, fmt.Errorf("dynamic: wal dimension %d out of range", dim)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := newWAL(f, path, dim, mode)
	w.base.Store(base)
	if err := w.writeHeader(base); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// OpenWAL opens the log at path for appending, creating it when absent (or
// when only a truncation remnant shorter than a header exists). An existing
// log must carry the expected dim; replay reports what the file held, and a
// torn final record is truncated away before the first append. base is the
// owning index's current handle count, written into the header only when the
// file is created fresh.
func OpenWAL(path string, dim int, base uint64, mode WALSync) (*WAL, WALReplay, error) {
	st, err := os.Stat(path)
	if errors.Is(err, os.ErrNotExist) || (err == nil && st.Size() < walHeaderLen) {
		w, cerr := CreateWAL(path, dim, base, mode)
		return w, WALReplay{}, cerr
	}
	if err != nil {
		return nil, WALReplay{}, err
	}
	rep, err := DecodeWALFile(path, nil)
	if err != nil {
		return nil, rep, err
	}
	if rep.Header.Dim != dim {
		return nil, rep, fmt.Errorf("%w: wal %s holds vectors of width %d, index needs %d",
			binio.ErrCorrupt, path, rep.Header.Dim, dim)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, rep, err
	}
	if rep.TornBytes > 0 {
		if err := f.Truncate(st.Size() - rep.TornBytes); err != nil {
			f.Close()
			return nil, rep, err
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, rep, err
	}
	w := newWAL(f, path, dim, mode)
	w.base.Store(rep.Header.Base)
	w.records.Store(int64(rep.Records))
	return w, rep, nil
}

func (w *WAL) writeHeader(base uint64) error {
	if _, err := w.f.Write(encodeWALHeader(w.dim, base)); err != nil {
		return err
	}
	return w.f.Sync()
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// Dim returns the vector width of insert records.
func (w *WAL) Dim() int { return w.dim }

// Base returns the handle count recorded at the last truncation.
func (w *WAL) Base() uint64 { return w.base.Load() }

// Records returns the number of records currently in the log (mutations
// pending beyond the last snapshot). Safe to call concurrently with appends.
func (w *WAL) Records() int64 { return w.records.Load() }

// Mode returns the fsync policy.
func (w *WAL) Mode() WALSync { return w.mode }

// Syncs returns the number of fsyncs the group-commit path has issued. Under
// load Records grows much faster than Syncs — the ratio is the group-commit
// amortization factor metrics report.
func (w *WAL) Syncs() int64 { return w.syncs.Load() }

// append checksums one record body, writes the framed record and assigns it
// the next durability sequence number. Under WALSyncAlways the record is NOT yet on disk when append
// returns — the caller must not acknowledge the mutation until a following
// WaitDurable succeeds. A failed append leaves the log sticky-failed — the
// file tail may hold a partial record, so later appends must not interleave
// with it — until the next TruncateTo resets the file.
func (w *WAL) append(body []byte) error {
	body = binary.LittleEndian.AppendUint32(body, binio.Checksum(body))
	w.buf = body // the next record reuses the grown buffer
	if w.err != nil {
		return fmt.Errorf("dynamic: wal %s failed earlier: %w", w.path, w.err)
	}
	if _, err := w.f.Write(body); err != nil {
		w.err = err
		return err
	}
	w.records.Add(1)
	if w.mode == WALSyncAlways {
		w.gcMu.Lock()
		w.appended++
		w.gcMu.Unlock()
	}
	return nil
}

// WaitDurable blocks until every record appended before the call is on disk,
// then returns nil. Under WALSyncNone it returns immediately — durability is
// the OS's business there. Safe for concurrent use: the first waiter becomes
// the commit-group leader and fsyncs once on behalf of everything appended so
// far; waiters arriving while that fsync is in flight sleep and either find
// their record covered when it lands or lead the next group. A lone writer
// thus degrades to one fsync per append (the classical WALSyncAlways cost),
// while N concurrent writers amortize one fsync across the whole group.
//
// A failed fsync is returned to every waiter whose records it stranded and
// leaves the log sticky-failed until TruncateTo, mirroring append's contract:
// after an fsync error the kernel may have dropped the dirty pages, so no
// later fsync can retroactively promise those records are durable.
func (w *WAL) WaitDurable() error {
	if w.mode != WALSyncAlways {
		return nil
	}
	w.gcMu.Lock()
	defer w.gcMu.Unlock()
	target := w.appended
	for w.synced < target {
		if w.syncErr != nil {
			return fmt.Errorf("dynamic: wal %s: group commit failed earlier: %w", w.path, w.syncErr)
		}
		if w.syncing {
			w.gcCond.Wait()
			continue
		}
		w.syncing = true
		goal := w.appended // everything written so far rides this fsync
		w.gcMu.Unlock()
		err := w.syncOnce()
		w.gcMu.Lock()
		w.syncing = false
		if err != nil {
			w.syncErr = err
			w.gcCond.Broadcast()
			return err
		}
		if goal > w.synced {
			w.synced = goal
		}
		w.gcCond.Broadcast()
	}
	return nil
}

// syncOnce issues one fsync through the wal.fsync failpoint, so chaos tests
// can slow or fail the disk underneath the commit group.
func (w *WAL) syncOnce() error {
	if faultinject.Armed() {
		if err := faultinject.Inject("wal.fsync"); err != nil {
			return err
		}
	}
	w.syncs.Add(1)
	return w.f.Sync()
}

// AppendInsert logs an applied insert: the handle the index assigned, the
// raw point and its attribute payload — an op=1 record when the payload is
// empty, an op=3 record carrying its internal/attr wire encoding otherwise.
// The mutation must not be acknowledged unless this returns nil — and, under
// WALSyncAlways, a following WaitDurable returns nil too.
func (w *WAL) AppendInsert(handle int32, p []float32, at attr.Point) error {
	if len(p) != w.dim {
		return fmt.Errorf("dynamic: wal %s: insert of width %d, log holds %d", w.path, len(p), w.dim)
	}
	b := append(w.buf[:0], WALOpInsert)
	b = binary.LittleEndian.AppendUint32(b, uint32(handle))
	for _, v := range p {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	if !at.Empty() {
		b[0] = WALOpInsertAttrs
		alenOff := len(b)
		b = attr.AppendPoint(append(b, 0, 0, 0, 0), &at)
		alen := len(b) - alenOff - 4
		if alen > attr.MaxPointEncoded {
			return fmt.Errorf("dynamic: wal %s: attribute payload of %d bytes, limit %d", w.path, alen, attr.MaxPointEncoded)
		}
		binary.LittleEndian.PutUint32(b[alenOff:], uint32(alen))
	}
	return w.append(b)
}

// AppendDelete logs an applied delete of a live handle.
func (w *WAL) AppendDelete(handle int32) error {
	b := append(w.buf[:0], WALOpDelete)
	return w.append(binary.LittleEndian.AppendUint32(b, uint32(handle)))
}

// TruncateTo empties the log and records base as the new snapshot boundary:
// every record so far is covered by a snapshot the caller just persisted.
// Called with the same lock held that serializes appends. A crash inside
// leaves a file shorter than a header, which OpenWAL and DecodeWALFile treat
// as empty — correct, because the snapshot persisted first.
func (w *WAL) TruncateTo(base uint64) error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := w.writeHeader(base); err != nil {
		return err
	}
	w.base.Store(base)
	w.records.Store(0)
	w.err = nil
	// Everything the log held is inside the snapshot now; pending commit
	// groups have nothing left to flush, and a sticky fsync failure is
	// forgiven because the failed records no longer exist.
	w.gcMu.Lock()
	w.synced = w.appended
	w.syncErr = nil
	w.gcCond.Broadcast()
	w.gcMu.Unlock()
	return nil
}

// Close syncs (regardless of policy) and closes the file.
func (w *WAL) Close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
