package attr

import "math"

// NodeInfo describes one node of a flat-arena metric tree in the only terms
// the summary builder needs: the contiguous position range [Start, End) the
// node covers and its children's arena indices (negative for a leaf). The
// owning tree supplies positions; ids maps a position to the store row it
// holds, so the summaries speak the tree's physical layout while the store
// speaks result-id space.
type NodeInfo struct {
	Start, End  int32
	Left, Right int32
}

// summaryTagBitsMax caps the per-node tag bitmap width. With a vocabulary
// larger than the cap, tag ids hash onto the bitmap modulo its width — a
// one-function Bloom filter whose false positives only cost a descent, never
// a wrong skip.
const summaryTagBitsMax = 1024

// Tri is the three-valued verdict of a node-level predicate check.
type Tri int8

const (
	// TriNo: no point under the node can satisfy the predicate; the whole
	// subtree is skippable.
	TriNo Tri = iota
	// TriMaybe: the summaries cannot decide; descend.
	TriMaybe
	// TriYes: every point under the node satisfies the predicate. Needed so
	// Not inverts soundly; the trees do not currently exploit it for
	// scan-without-checking.
	TriYes
)

func triAnd(a, b Tri) Tri {
	if a < b {
		return a
	}
	return b
}

func triOr(a, b Tri) Tri {
	if a > b {
		return a
	}
	return b
}

func triNot(a Tri) Tri {
	switch a {
	case TriNo:
		return TriYes
	case TriYes:
		return TriNo
	}
	return TriMaybe
}

// fieldSummary aggregates one field column per node: min/max over the
// present values and the present count, enough to answer a range clause with
// No (disjoint), Yes (all present and fully inside), or Maybe.
type fieldSummary struct {
	min, max []float64
	count    []int32
}

// Summaries holds the per-node predicate summaries of one tree: a tag
// bitmap (the union of the subtree's tag ids, hashed modulo the bitmap
// width) and per-field min/max/count, all in flat arrays parallel to the
// node arena. Summaries are derived state — rebuilt on attach, never
// serialized — so the container format carries only the store.
//
// The store may grow after the summaries were built (a dynamic index appends
// rows its snapshot tree does not hold). A tag id or field column that is new
// since then is absent from every row the summaries cover, and Node treats it
// so.
type Summaries struct {
	ntags int // vocabulary size at build: ids at or past it are absent
	words int // tag bitmap words per node
	bits  []uint64
	flds  []fieldSummary
	size  []int32 // points per node
}

// BuildSummaries computes the per-node summaries for a flat-arena tree whose
// node positions map to store rows via ids. Children must sit at strictly
// larger arena indices than their parent (the repo's preorder invariant), so
// one backward pass folds leaves first and merges children into parents.
func BuildSummaries(st *Store, ids []int32, nodes []NodeInfo) *Summaries {
	nn := len(nodes)
	words := 0
	if len(st.tags) > 0 {
		bits := len(st.tags)
		if bits > summaryTagBitsMax {
			bits = summaryTagBitsMax
		}
		words = (bits + 63) / 64
	}
	sm := &Summaries{
		ntags: len(st.tags),
		words: words,
		bits:  make([]uint64, nn*words),
		flds:  make([]fieldSummary, len(st.fields)),
		size:  make([]int32, nn),
	}
	for fi := range sm.flds {
		sm.flds[fi] = fieldSummary{
			min:   make([]float64, nn),
			max:   make([]float64, nn),
			count: make([]int32, nn),
		}
		for i := 0; i < nn; i++ {
			sm.flds[fi].min[i] = math.Inf(1)
			sm.flds[fi].max[i] = math.Inf(-1)
		}
	}

	for ni := nn - 1; ni >= 0; ni-- {
		n := &nodes[ni]
		sm.size[ni] = n.End - n.Start
		if n.Left < 0 { // leaf: fold rows
			for pos := n.Start; pos < n.End; pos++ {
				row := ids[pos]
				for _, tid := range st.tagIDs[st.tagStart[row]:st.tagStart[row+1]] {
					sm.setTag(ni, tid)
				}
				for fi := range st.fields {
					c := &st.fields[fi]
					if !c.has(row) {
						continue
					}
					fs := &sm.flds[fi]
					v := c.vals[row]
					if v < fs.min[ni] {
						fs.min[ni] = v
					}
					if v > fs.max[ni] {
						fs.max[ni] = v
					}
					fs.count[ni]++
				}
			}
			continue
		}
		// Internal: merge the children (already folded — larger indices).
		for _, ci := range []int32{n.Left, n.Right} {
			if sm.words > 0 {
				dst := sm.bits[ni*sm.words : (ni+1)*sm.words]
				src := sm.bits[int(ci)*sm.words : (int(ci)+1)*sm.words]
				for w := range dst {
					dst[w] |= src[w]
				}
			}
			for fi := range sm.flds {
				fs := &sm.flds[fi]
				if fs.min[ci] < fs.min[ni] {
					fs.min[ni] = fs.min[ci]
				}
				if fs.max[ci] > fs.max[ni] {
					fs.max[ni] = fs.max[ci]
				}
				fs.count[ni] += fs.count[ci]
			}
		}
	}
	return sm
}

func (sm *Summaries) setTag(ni int, tagID int32) {
	bit := uint32(tagID) % uint32(sm.words*64)
	sm.bits[ni*sm.words+int(bit>>6)] |= 1 << (bit & 63)
}

func (sm *Summaries) hasTagBit(ni int32, tagID int32) bool {
	if int(tagID) >= sm.ntags {
		return false
	}
	bit := uint32(tagID) % uint32(sm.words*64)
	return sm.bits[int(ni)*sm.words+int(bit>>6)]&(1<<(bit&63)) != 0
}

// MemBytes estimates the summaries' heap footprint.
func (sm *Summaries) MemBytes() int64 {
	total := int64(len(sm.bits))*8 + int64(len(sm.size))*4
	for i := range sm.flds {
		total += int64(len(sm.flds[i].min))*8 + int64(len(sm.flds[i].max))*8 + int64(len(sm.flds[i].count))*4
	}
	return total
}

// Node evaluates the compiled predicate against node ni's summaries. TriNo
// is a proof that no point in the subtree matches — the pushdown skip; the
// evaluation is conservative everywhere else, so skipping on TriNo keeps
// filtered results exactly equal to a full post-filter scan.
func (sm *Summaries) Node(ni int32, pr *Prog) Tri {
	return sm.node(ni, &pr.root)
}

func (sm *Summaries) node(ni int32, p *prog) Tri {
	switch p.op {
	case opFalse:
		return TriNo
	case opTag:
		// The bitmap is a superset of the subtree's tags (hash collisions
		// only add bits), so a clear bit proves absence; a set bit proves
		// nothing about every point, hence never TriYes.
		if !sm.hasTagBit(ni, p.tagID) {
			return TriNo
		}
		return TriMaybe
	case opAnyTag:
		for _, id := range p.tagIDs {
			if sm.hasTagBit(ni, id) {
				return TriMaybe
			}
		}
		return TriNo
	case opRange:
		if p.field >= len(sm.flds) {
			return TriNo // a column added since: absent everywhere here
		}
		fs := &sm.flds[p.field]
		cnt := fs.count[ni]
		if cnt == 0 {
			return TriNo // field absent everywhere: a range clause needs it
		}
		lo, hi := fs.min[ni], fs.max[ni]
		if (p.min != nil && hi < *p.min) || (p.max != nil && lo > *p.max) {
			return TriNo // summary interval disjoint from the range
		}
		if cnt == sm.size[ni] &&
			(p.min == nil || lo >= *p.min) &&
			(p.max == nil || hi <= *p.max) {
			return TriYes // present everywhere and fully inside
		}
		return TriMaybe
	case opAnd:
		out := TriYes
		for i := range p.kids {
			out = triAnd(out, sm.node(ni, &p.kids[i]))
			if out == TriNo {
				return TriNo
			}
		}
		return out
	case opOr:
		out := TriNo
		for i := range p.kids {
			out = triOr(out, sm.node(ni, &p.kids[i]))
			if out == TriYes {
				return TriYes
			}
		}
		return out
	case opNot:
		return triNot(sm.node(ni, &p.kids[0]))
	}
	return TriMaybe
}
