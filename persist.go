package p2h

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"p2h/internal/attr"
	"p2h/internal/balltree"
	"p2h/internal/binio"
	"p2h/internal/dynamic"
	"p2h/internal/shard"
)

// ErrFormat is returned by Load and Open for malformed input: a stream that
// is not an index container, a corrupt or truncated envelope, or a payload
// its kind's loader rejects.
var ErrFormat = errors.New("p2h: malformed index container")

// containerMagic opens the self-describing container: every index saved
// with p2h.Save starts with these bytes, followed by the length-prefixed
// kind tag and JSON-encoded Spec, then the kind's own payload.
var containerMagic = []byte("P2HIX001")

// containerMagicV2 opens the container variant carrying per-point
// attributes: the same header as v1, then one length-prefixed attribute
// section (see internal/attr.WriteSection) between the spec and the kind
// payload. Save emits it only when the index actually carries attributes, so
// unattributed saves stay byte-identical to every earlier release.
var containerMagicV2 = []byte("P2HIX002")

// Container header bounds; a corrupt length prefix fails fast instead of
// allocating (see readBlock).
const (
	maxKindTagLen     = 64
	maxSpecJSONLen    = 1 << 20
	maxAttrSectionLen = 1 << 28
)

// Save writes ix to w as a self-describing container: any reader can
// restore it with Load without knowing the kind in advance. The index's
// kind must be registered and persistable; build-only kinds (NH, FH, the
// scan baselines) return an error naming the documented reason.
func Save(w io.Writer, ix Index) error {
	k := kindOwning(ix)
	if k == nil {
		return fmt.Errorf("p2h: Save: no registered index kind owns %T", ix)
	}
	if k.Save == nil {
		return fmt.Errorf("p2h: Save: index kind %q is build-only: %s", k.Name, k.BuildOnly)
	}
	spec := k.SpecOf(ix)
	spec.Kind = k.Name
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("p2h: Save: encoding spec: %w", err)
	}
	st, err := storeOf(ix)
	if err != nil {
		return fmt.Errorf("p2h: Save: collecting attributes: %w", err)
	}
	var head bytes.Buffer
	if st == nil {
		head.Write(containerMagic)
		writeBlock(&head, []byte(k.Name))
		writeBlock(&head, specJSON)
	} else {
		head.Write(containerMagicV2)
		writeBlock(&head, []byte(k.Name))
		writeBlock(&head, specJSON)
		section, err := encodeAttrSection(st)
		if err != nil {
			return fmt.Errorf("p2h: Save: encoding attributes: %w", err)
		}
		writeBlock(&head, section)
	}
	if _, err := w.Write(head.Bytes()); err != nil {
		return err
	}
	return k.Save(w, ix)
}

// encodeAttrSection serializes an attribute store to the block a v2
// container embeds.
func encodeAttrSection(st *attr.Store) ([]byte, error) {
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	attr.WriteSection(bw, st)
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	if buf.Len() > maxAttrSectionLen {
		return nil, fmt.Errorf("attribute section is %d bytes, limit %d", buf.Len(), maxAttrSectionLen)
	}
	return buf.Bytes(), nil
}

// decodeAttrSection restores the store from a v2 container's attribute
// block.
func decodeAttrSection(section []byte) (*attr.Store, error) {
	br := binio.NewReader(bytes.NewReader(section))
	st := attr.ReadSection(br)
	if err := br.Err(); err != nil {
		return nil, err
	}
	return st, nil
}

// SaveFile writes ix to the named file in the container format.
func SaveFile(path string, ix Index) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Save(f, ix); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

// Load restores an index of any registered kind from a stream written by
// Save. Malformed input — including a bare tree payload without the
// container envelope — returns an error wrapping ErrFormat; a container
// naming an unregistered kind returns ErrUnknownKind.
func Load(r io.Reader) (Index, error) { return load(binio.NewReader(r)) }

// load decodes a container from br. br knows how many bytes are left whenever
// its source could say (Open passes the file size), and every decoder below —
// the header blocks here, the kind's payload loader, the trees a Sharded or
// Dynamic payload embeds — reads through it or through a sized view of its
// bytes, so a declared length the stream cannot deliver fails before it is
// allocated.
func load(br *binio.Reader) (Index, error) {
	h, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	k, err := lookupKind(h.kind)
	if err != nil {
		return nil, err
	}
	if err := refuseBuildOnly(k); err != nil {
		return nil, err
	}
	if h.spec.Kind == "" {
		h.spec.Kind = k.Name
	}
	ix, err := k.Load(br, h.spec)
	if err != nil {
		return nil, fmt.Errorf("%w: %s payload: %v", ErrFormat, k.Name, err)
	}
	if h.attrs != nil {
		if err := attachStore(ix, h.attrs); err != nil {
			return nil, fmt.Errorf("%w: attaching attributes: %v", ErrFormat, err)
		}
	}
	return ix, nil
}

// refuseBuildOnly returns the error a container naming kind k is refused
// with when k has no codec (any more), by Load, Open and Inspect alike; nil
// for a persistable kind.
func refuseBuildOnly(k *IndexKind) error {
	if k.Load != nil {
		return nil
	}
	return fmt.Errorf("%w: container holds build-only kind %q (%s)", ErrFormat, k.Name, k.BuildOnly)
}

// header is everything a container holds ahead of the kind's payload.
type header struct {
	kind  string
	spec  Spec
	attrs *attr.Store // nil for a v1 container
}

// readHeader decodes the container envelope, leaving br at the first byte of
// the kind's payload.
func readHeader(br *binio.Reader) (header, error) {
	magic := br.Raw(len(containerMagic))
	if err := br.Err(); err != nil {
		return header{}, fmt.Errorf("%w: reading magic: %v", ErrFormat, err)
	}
	v2 := bytes.Equal(magic, containerMagicV2)
	if !v2 && !bytes.Equal(magic, containerMagic) {
		return header{}, fmt.Errorf("%w: unrecognized magic %q", ErrFormat, magic)
	}
	kindTag, err := readBlock(br, maxKindTagLen, "kind tag")
	if err != nil {
		return header{}, err
	}
	specJSON, err := readBlock(br, maxSpecJSONLen, "spec")
	if err != nil {
		return header{}, err
	}
	h := header{kind: string(kindTag)}
	if err := json.Unmarshal(specJSON, &h.spec); err != nil {
		return header{}, fmt.Errorf("%w: decoding spec: %v", ErrFormat, err)
	}
	if v2 {
		section, err := readBlock(br, maxAttrSectionLen, "attribute section")
		if err != nil {
			return header{}, err
		}
		if h.attrs, err = decodeAttrSection(section); err != nil {
			return header{}, fmt.Errorf("%w: attribute section: %v", ErrFormat, err)
		}
	}
	return h, nil
}

// Open restores an index of any registered kind from the named file; see
// Load for the accepted formats.
//
// For a dynamic index, Open also replays the sidecar write-ahead log
// (path + ".wal") when one is present: mutations acknowledged by a durable
// server after the container was last snapshotted are applied on top, so
// the returned index is at the exact pre-crash state — same live set, same
// handle counter. A corrupt sidecar fails the whole Open (wrapping
// ErrFormat) rather than silently serving a stale state; a missing sidecar
// is the common case and is not an error. The replay is read-only: to keep
// logging new mutations, attach the log with AttachWAL (idempotent over the
// same records) and serve through ServerOptions.WAL.
func Open(path string) (Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size := int64(-1) // unknown: not a regular file, or it would not say
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
		size = fi.Size()
	}
	ix, err := load(binio.NewSizedReader(f, size))
	if err != nil {
		return nil, fmt.Errorf("p2h: open %s: %w", path, err)
	}
	if d, ok := ix.(*Dynamic); ok {
		if _, err := replayWAL(d, WALPath(path)); err != nil {
			return nil, fmt.Errorf("p2h: open %s: %w", path, err)
		}
	}
	return ix, nil
}

// IndexInfo describes a saved index without its payload being loaded:
// everything Inspect can learn from the container header plus the fixed-size
// shape prefix of the kind's own payload.
type IndexInfo struct {
	// Kind is the registered kind name recorded in the container header.
	Kind string
	// Spec is the declarative Spec recorded in the container header.
	Spec Spec
	// Dim is the raw point dimensionality, or -1 when the payload format is
	// not one this decoder knows (an out-of-tree registered kind).
	Dim int
	// N is the number of indexed points (live points for a dynamic index),
	// or -1 when the payload format is unknown.
	N int
	// HasAttrs marks a v2 container carrying a per-point attribute section.
	HasAttrs bool
	// AttrTags is the attribute section's tag vocabulary (sorted); nil when
	// the container carries no attributes.
	AttrTags []string
	// AttrFields is the attribute section's field schema as "name:int" /
	// "name:float" entries in name order; nil when no attributes.
	AttrFields []string
	// WALPath is the sidecar write-ahead log found next to the container
	// ("" when none exists). Only InspectFile can probe for it; Inspect on
	// a bare stream always reports no sidecar.
	WALPath string
	// WALRecords is the number of pending records in the sidecar log:
	// acknowledged mutations a durable server has applied since the
	// container was last snapshotted, which Open will replay. Zero when
	// there is no sidecar (or it holds nothing).
	WALRecords int
}

// Inspect reads the header of an index stream written by Save and reports
// its kind, recorded Spec, raw dimensionality and point count without
// loading the payload: only the container header and the payload's
// fixed-size shape prefix are read (for a dynamic index also its liveness
// bytes, which follow that prefix directly; for a sharded or dynamic index
// also the id list in front of the first tree it embeds, to see that tree's
// payload version). A container holding a payload this
// decoder does not know still reports its kind and Spec, with Dim and N set
// to -1. Malformed input returns an error wrapping ErrFormat, and so does a
// container Load refuses by its header alone: one of a registered build-only
// kind, or of a payload version this build has retired.
func Inspect(r io.Reader) (IndexInfo, error) {
	br := binio.NewReader(r)
	h, err := readHeader(br)
	if err != nil {
		return IndexInfo{}, err
	}
	if k, err := lookupKind(h.kind); err == nil {
		if err := refuseBuildOnly(k); err != nil {
			return IndexInfo{}, err
		}
	}
	info := IndexInfo{Kind: h.kind, Spec: h.spec}
	if info.Spec.Kind == "" {
		info.Spec.Kind = info.Kind
	}
	if st := h.attrs; st != nil {
		info.HasAttrs = true
		info.AttrTags = st.Tags()
		names, kinds := st.Fields()
		for i, name := range names {
			k := "float"
			if kinds[i] == attr.FieldInt {
				k = "int"
			}
			info.AttrFields = append(info.AttrFields, name+":"+k)
		}
	}
	info.Dim, info.N, err = payloadShape(br)
	if err != nil {
		return IndexInfo{}, err
	}
	return info, nil
}

// InspectFile reports the kind, Spec, dimensionality and point count of the
// named index file without loading it; see Inspect. It additionally probes
// for a sidecar write-ahead log (path + ".wal") and reports its pending
// record count — the mutations Open would replay — without touching the
// container payload or the logged vectors beyond checksum verification. A
// corrupt sidecar fails the inspection, like a corrupt container.
func InspectFile(path string) (IndexInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return IndexInfo{}, err
	}
	defer f.Close()
	info, err := Inspect(f)
	if err != nil {
		return IndexInfo{}, fmt.Errorf("p2h: inspect %s: %w", path, err)
	}
	walPath := WALPath(path)
	if _, err := os.Stat(walPath); err == nil {
		n, err := CountWALRecords(walPath)
		if err != nil {
			return IndexInfo{}, fmt.Errorf("p2h: inspect %s: %w", path, err)
		}
		info.WALPath = walPath
		info.WALRecords = n
	}
	return info, nil
}

// maxInspectDim bounds a payload-declared dimensionality, mirroring the
// serializers' own guards, so a corrupt shape fails instead of driving a
// huge skip.
const maxInspectDim = 1 << 20

// payloadShape decodes the raw dimensionality and point count from the
// fixed-size shape prefix of a known payload format (the built-in kinds'
// serializers all start with an 8-byte magic and little-endian counters).
// Unknown payload magics — an out-of-tree registered kind, including one
// whose whole payload is shorter than a magic — report (-1, -1) with no
// error; only structurally corrupt known payloads fail, and a payload
// version this build has retired fails with the error Load would give.
func payloadShape(br io.Reader) (dim, n int, err error) {
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return -1, -1, nil // a payload too short for any built-in format
		}
		return 0, 0, fmt.Errorf("%w: reading payload magic: %v", ErrFormat, err)
	}
	u32 := func() (int, error) {
		var b [4]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, fmt.Errorf("%w: reading payload header: %v", ErrFormat, err)
		}
		return int(int32(binary.LittleEndian.Uint32(b[:]))), nil
	}
	m := string(magic[:])
	for _, retired := range []func(string) error{balltree.RetiredPayload, shard.RetiredPayload, dynamic.RetiredPayload} {
		if err := retired(m); err != nil {
			return 0, 0, fmt.Errorf("%w: %v", ErrFormat, err)
		}
	}
	switch {
	case slices.Contains(balltree.PayloadMagics(), m):
		// leafSize, n, d — the stored d is lifted (raw + 1).
		if _, err := u32(); err != nil { // leafSize
			return 0, 0, err
		}
		var lifted int
		if n, err = u32(); err != nil {
			return 0, 0, err
		}
		if lifted, err = u32(); err != nil {
			return 0, 0, err
		}
		if n <= 0 || lifted <= 1 || lifted > maxInspectDim {
			return 0, 0, fmt.Errorf("%w: payload header: n=%d d=%d", ErrFormat, n, lifted)
		}
		return lifted - 1, n, nil
	case m == "P2HSH002":
		// n, d (lifted), shards, workers.
		var lifted int
		if n, err = u32(); err != nil {
			return 0, 0, err
		}
		if lifted, err = u32(); err != nil {
			return 0, 0, err
		}
		if n <= 0 || lifted <= 1 || lifted > maxInspectDim {
			return 0, 0, fmt.Errorf("%w: payload header: n=%d d=%d", ErrFormat, n, lifted)
		}
		if _, err := io.CopyN(io.Discard, br, 2*4); err != nil { // shards, workers
			return 0, 0, fmt.Errorf("%w: reading payload header: %v", ErrFormat, err)
		}
		return lifted - 1, n, retiredEmbeddedTree(br)
	case m == "P2HDY003":
		// leafSize i32, seed i64, rebuild f64, dim i32 (lifted), handles i32,
		// then one liveness byte per handle (read to count the live points).
		if _, err := io.CopyN(io.Discard, br, 4+8+8); err != nil {
			return 0, 0, fmt.Errorf("%w: reading payload header: %v", ErrFormat, err)
		}
		lifted, err := u32()
		if err != nil {
			return 0, 0, err
		}
		handles, err := u32()
		if err != nil {
			return 0, 0, err
		}
		if lifted <= 1 || lifted > maxInspectDim || handles < 0 {
			return 0, 0, fmt.Errorf("%w: payload header: dim=%d handles=%d", ErrFormat, lifted, handles)
		}
		live := 0
		buf := make([]byte, 4096)
		for left := handles; left > 0; left -= len(buf) {
			buf = buf[:min(left, len(buf))]
			if _, err := io.ReadFull(br, buf); err != nil {
				return 0, 0, fmt.Errorf("%w: reading liveness bytes: %v", ErrFormat, err)
			}
			live += bytes.Count(buf, []byte{1})
		}
		if _, err := io.ReadFull(br, buf[:1]); err == nil && buf[0] == 1 { // a snapshot tree follows
			return lifted - 1, live, retiredEmbeddedTree(br)
		}
		return lifted - 1, live, nil
	}
	return -1, -1, nil
}

// retiredEmbeddedTree reads on through what a Sharded or Dynamic payload puts
// in front of the (first) tree it embeds — the tree payload's length — to that
// tree's magic, and returns the error Load refuses the container with when the
// magic is one this build has retired: Inspect does not describe a container
// Open will not open. Anything else, a stream that ends first included, is
// Load's to judge.
func retiredEmbeddedTree(br io.Reader) error {
	var b [8]byte
	if _, err := io.CopyN(io.Discard, br, 8); err != nil { // the payload's length
		return nil
	}
	if _, err := io.ReadFull(br, b[:]); err != nil {
		return nil
	}
	if err := balltree.RetiredPayload(string(b[:])); err != nil {
		return fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return nil
}

// writeBlock appends a little-endian uint32 length prefix and the bytes.
func writeBlock(buf *bytes.Buffer, b []byte) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(b)))
	buf.Write(n[:])
	buf.Write(b)
}

// readBlock reads one length-prefixed block. The length is bounded by maxLen
// and, through br, by what the stream can still deliver when that is known;
// when it is not, the block grows a chunk at a time as its bytes arrive. A
// four-byte prefix never buys an allocation the stream does not back.
func readBlock(br *binio.Reader, maxLen int, what string) ([]byte, error) {
	ln := int(uint32(br.I32()))
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("%w: reading %s length: %v", ErrFormat, what, err)
	}
	if ln <= 0 || ln > maxLen {
		return nil, fmt.Errorf("%w: %s length %d out of range (1..%d)", ErrFormat, what, ln, maxLen)
	}
	b := br.Raw(ln)
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("%w: reading %s: %v", ErrFormat, what, err)
	}
	return b, nil
}
