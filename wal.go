package p2h

import (
	"errors"
	"fmt"
	"os"

	"p2h/internal/attr"
	"p2h/internal/binio"
	"p2h/internal/dynamic"
)

// WALSyncMode is the write-ahead log's fsync policy.
type WALSyncMode int

const (
	// WALSyncAlways fsyncs every record before the mutation is
	// acknowledged: acknowledged writes survive even a machine crash.
	WALSyncAlways WALSyncMode = iota
	// WALSyncNone leaves flushing to the OS: acknowledged writes survive a
	// process crash but a machine crash may lose a recent suffix.
	WALSyncNone
)

// String returns the policy's flag/config name ("always" or "none").
func (m WALSyncMode) String() string {
	if m == WALSyncNone {
		return "none"
	}
	return "always"
}

// ParseWALSyncMode resolves the textual policy names used by flags and
// config files ("always", "none").
func ParseWALSyncMode(s string) (WALSyncMode, error) {
	switch s {
	case "", "always":
		return WALSyncAlways, nil
	case "none":
		return WALSyncNone, nil
	}
	return 0, fmt.Errorf("p2h: unknown wal sync mode %q (want always or none)", s)
}

func (m WALSyncMode) internal() dynamic.WALSync {
	if m == WALSyncNone {
		return dynamic.WALSyncNone
	}
	return dynamic.WALSyncAlways
}

// WALPath is the sidecar naming convention: the write-ahead log of the
// index container at path lives next to it as path + ".wal".
func WALPath(path string) string { return path + ".wal" }

// WAL is a write-ahead log attached to a Dynamic index. Pass it to
// NewServer through ServerOptions.WAL: every insert (with its attribute
// payload) and delete the server applies is appended — and, under
// WALSyncAlways, fsynced, concurrent mutations sharing one fsync — before
// the call returns, Server.Snapshot truncates the log atomically with the
// snapshot, and Open replays a pending log on top of its container — so a
// crash between snapshots loses no acknowledged mutation. The server is the
// only writer: the log has no append method of its own.
//
// The counters are safe to read concurrently.
type WAL struct {
	d        *Dynamic
	wal      *dynamic.WAL
	replayed int
}

// AttachWAL opens — creating if absent — the write-ahead log at path for
// ix, which must be a Dynamic index. Records already in the log (mutations
// acknowledged before a crash, less anything a later snapshot absorbed) are
// replayed into ix first, so the index is at its exact pre-crash state when
// AttachWAL returns; Replayed reports how many records were applied. A
// structurally corrupt log returns an error wrapping ErrFormat.
func AttachWAL(ix Index, path string, mode WALSyncMode) (*WAL, error) {
	d, ok := ix.(*Dynamic)
	if !ok {
		return nil, fmt.Errorf("p2h: write-ahead logging requires a dynamic index, got %s", KindOf(ix))
	}
	applied, err := replayWAL(d, path)
	if err != nil {
		return nil, err
	}
	w, _, err := dynamic.OpenWAL(path, d.raw, uint64(d.Handles()), mode.internal())
	if err != nil {
		return nil, wrapWALErr(path, err)
	}
	return &WAL{d: d, wal: w, replayed: applied}, nil
}

// replayWAL applies the pending records of the log at path to d. The first
// pass decodes the whole file — verifying every checksum and reading the
// header — before any record is applied, so a log that turns out corrupt
// halfway never leaves the index half-replayed; the second pass applies.
// A missing log (or a truncation remnant) replays zero records.
func replayWAL(d *Dynamic, path string) (int, error) {
	rep, err := dynamic.DecodeWALFile(path, nil)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, wrapWALErr(path, err)
	}
	if rep.Records == 0 {
		return 0, nil
	}
	if rep.Header.Dim != d.raw {
		return 0, fmt.Errorf("%w: wal %s holds %d-dimensional points, index holds %d",
			ErrFormat, path, rep.Header.Dim, d.raw)
	}
	if rep.Header.Base > uint64(d.Handles()) {
		// The log was truncated against a snapshot newer than this one:
		// mutations between the two are in neither file. Refuse rather than
		// resurrect a partial history.
		return 0, fmt.Errorf("%w: wal %s was truncated at handle %d but the index only reaches %d (stale snapshot?)",
			ErrFormat, path, rep.Header.Base, d.Handles())
	}

	applied := 0
	_, err = dynamic.DecodeWALFile(path, func(op byte, handle int32, v []float32, at attr.Point) error {
		h := d.Handles()
		switch op {
		case dynamic.WALOpInsert, dynamic.WALOpInsertAttrs:
			switch {
			case int(handle) < h:
				// Already inside the snapshot: the crash hit between the
				// snapshot rename and the log truncation. Skip.
			case int(handle) == h:
				// The first pass decoded every payload and held it to the
				// payload rule, so the index cannot refuse this one.
				if got, err := d.insert(v, at); err != nil || got != handle {
					return fmt.Errorf("%w: wal %s: replayed insert got handle %d (%v), want %d",
						ErrFormat, path, got, err, handle)
				}
				applied++
			default:
				return fmt.Errorf("%w: wal %s: record skips from handle %d to %d",
					ErrFormat, path, h, handle)
			}
		case dynamic.WALOpDelete:
			// Deletes are idempotent: one covered by the snapshot finds the
			// handle already dead (or, for a snapshot that also compacted it
			// away, out of range) and is a no-op.
			if int(handle) < h && d.Delete(handle) {
				applied++
			}
		}
		return nil
	})
	if err != nil {
		return applied, wrapWALErr(path, err)
	}
	return applied, nil
}

func wrapWALErr(path string, err error) error {
	if errors.Is(err, binio.ErrCorrupt) {
		return fmt.Errorf("%w: wal %s: %v", ErrFormat, path, err)
	}
	return err
}

// Records returns the number of pending records — acknowledged mutations
// not yet absorbed by a snapshot. Safe to call concurrently with appends.
func (w *WAL) Records() int64 { return w.wal.Records() }

// Syncs returns how many fsyncs the group-commit path has issued; the ratio
// Records-ever-appended to Syncs is the group-commit amortization factor.
func (w *WAL) Syncs() int64 { return w.wal.Syncs() }

// Replayed reports how many pending records AttachWAL applied to the index
// when the log was opened.
func (w *WAL) Replayed() int { return w.replayed }

// Path returns the log's file path.
func (w *WAL) Path() string { return w.wal.Path() }

// SyncMode returns the fsync policy the log was attached with.
func (w *WAL) SyncMode() WALSyncMode {
	if w.wal.Mode() == dynamic.WALSyncNone {
		return WALSyncNone
	}
	return WALSyncAlways
}

// truncate empties the log after a snapshot persisted every record; called
// by Server.Snapshot under the exclusive lock.
func (w *WAL) truncate() error { return w.wal.TruncateTo(uint64(w.d.Handles())) }

// Close syncs and closes the log file. The serving stack must be drained
// first: an append after Close fails (and the failed mutation is reported
// to its caller, never silently dropped).
func (w *WAL) Close() error { return w.wal.Close() }

// CountWALRecords reports how many pending records the log at path holds,
// without an index to replay into — the cheap existence/backlog probe used
// by Inspect. A missing or remnant-only file reports zero; a corrupt one
// returns an error wrapping ErrFormat.
func CountWALRecords(path string) (int, error) {
	rep, err := dynamic.DecodeWALFile(path, nil)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, wrapWALErr(path, err)
	}
	return rep.Records, nil
}
