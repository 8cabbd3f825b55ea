package p2h

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"p2h/internal/attr"
	"p2h/internal/binio"
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
// restore it with Load without knowing the kind in advance. ix must come from
// New, Open or Load and be of a persistable kind; build-only kinds (NH, FH,
// the KD-Tree and scan baselines) return an error naming the documented
// reason.
func Save(w io.Writer, ix Index) error {
	wr, ok := ix.(wrapped)
	if !ok {
		return fmt.Errorf("p2h: Save: %T is not an index of this package", ix)
	}
	h := wr.base()
	k := h.kind
	if k.save == nil {
		return fmt.Errorf("p2h: Save: index kind %q is build-only: %s", k.name, k.buildOnly)
	}
	spec := k.specOf(h.in)
	spec.Kind = k.name
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("p2h: Save: encoding spec: %w", err)
	}
	st, err := storeOf(h)
	if err != nil {
		return fmt.Errorf("p2h: Save: collecting attributes: %w", err)
	}
	var head bytes.Buffer
	if st == nil {
		head.Write(containerMagic)
	} else {
		head.Write(containerMagicV2)
	}
	writeBlock(&head, []byte(k.name))
	writeBlock(&head, specJSON)
	if st != nil {
		section, err := encodeAttrSection(st)
		if err != nil {
			return fmt.Errorf("p2h: Save: encoding attributes: %w", err)
		}
		writeBlock(&head, section)
	}
	if _, err := w.Write(head.Bytes()); err != nil {
		return err
	}
	return k.save(w, h.in)
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

// Load restores an index of any persistable kind from a stream written by
// Save. Malformed input — including a bare tree payload without the
// container envelope — returns an error wrapping ErrFormat; a container
// naming an unknown kind returns ErrUnknownKind.
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
	in, err := h.kind.load(br, h.spec)
	if err != nil {
		return nil, fmt.Errorf("%w: %s payload: %v", ErrFormat, h.kind.name, err)
	}
	ix := h.kind.index(in, in.Dim()-1)
	if h.attrs != nil {
		if err := attachStore(ix, h.attrs); err != nil {
			return nil, fmt.Errorf("%w: attaching attributes: %v", ErrFormat, err)
		}
	}
	return ix, nil
}

// header is everything a container holds ahead of the kind's payload.
type header struct {
	kind  *kind // of the kind tag; always a persistable one
	spec  Spec
	attrs *attr.Store // nil for a v1 container
}

// readHeader decodes the container envelope, leaving br at the first byte of
// the kind's payload. A kind tag the table does not know is ErrUnknownKind; one
// of a build-only kind — which has no codec (any more) — is refused, for Load,
// Open and Inspect alike.
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
	var h header
	if h.kind, err = lookupKind(string(kindTag)); err != nil {
		return header{}, err
	}
	if h.kind.load == nil {
		return header{}, fmt.Errorf("%w: container holds build-only kind %q (%s)", ErrFormat, h.kind.name, h.kind.buildOnly)
	}
	if err := json.Unmarshal(specJSON, &h.spec); err != nil {
		return header{}, fmt.Errorf("%w: decoding spec: %v", ErrFormat, err)
	}
	if h.spec.Kind == "" {
		h.spec.Kind = h.kind.name
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

// Open restores an index of any persistable kind from the named file; see
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
	// Kind is the kind name recorded in the container header.
	Kind string
	// Spec is the declarative Spec recorded in the container header.
	Spec Spec
	// Dim is the raw point dimensionality.
	Dim int
	// N is the number of indexed points (live points for a dynamic index).
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
// loading the payload: only the container header and the shape prefix of the
// payload are read, by the reader the kind's own package keeps beside its
// serializer (for a dynamic index that includes its liveness bytes, which
// follow the prefix directly; for a sharded or dynamic index also the magic of
// the first tree it embeds). Inspect fails wherever Load fails by those bytes
// alone: malformed input and a payload version this build has retired return
// an error wrapping ErrFormat, as does a build-only kind's container; an
// unknown kind returns ErrUnknownKind.
func Inspect(r io.Reader) (IndexInfo, error) {
	br := binio.NewReader(r)
	h, err := readHeader(br)
	if err != nil {
		return IndexInfo{}, err
	}
	info := IndexInfo{Kind: h.kind.name, Spec: h.spec}
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
	n, lifted, err := h.kind.shape(br)
	if err != nil {
		return IndexInfo{}, fmt.Errorf("%w: %s payload: %v", ErrFormat, h.kind.name, err)
	}
	info.Dim, info.N = lifted-1, n
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
