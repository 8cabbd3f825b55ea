package attr

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ErrPred reports a structurally invalid predicate.
var ErrPred = errors.New("attr: invalid predicate")

// Pred is one node of the declarative predicate AST. Exactly one clause must
// be set per node:
//
//   - Tag: the point carries this tag;
//   - AnyTag: the point carries at least one of these tags;
//   - Field with Min and/or Max: the named numeric field is present and its
//     value lies in the inclusive range [Min, Max] (a nil bound is open);
//     int64 fields compare in the float64 domain;
//   - And / Or: all / at least one of the children match;
//   - Not: the child does not match.
//
// A tag or field name the index has never seen simply never matches (it is
// not an error), so predicates are portable across indexes with different
// schemas — including the empty schema of an index with no attributes, where
// only clauses that match the empty payload (e.g. Not(Tag)) accept points.
//
// The struct doubles as the JSON wire form ("filter" on search requests).
// Pred values are treated as immutable once built; the serving layer caches
// results keyed by Canon, which would go stale if a predicate were mutated
// in place between requests.
type Pred struct {
	Tag    string   `json:"tag,omitempty"`
	AnyTag []string `json:"any_tag,omitempty"`
	Field  string   `json:"field,omitempty"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
	And    []*Pred  `json:"and,omitempty"`
	Or     []*Pred  `json:"or,omitempty"`
	Not    *Pred    `json:"not,omitempty"`
}

// Structural bounds on decoded predicates: adversarial JSON must not drive
// unbounded recursion or memory.
const (
	maxPredNodes = 4096
	maxPredDepth = 64
)

// Validate checks the structural invariants: exactly one clause per node, a
// range clause carrying at least one bound and a coherent one (Min <= Max),
// non-empty And/Or/AnyTag lists, and the size/depth caps. Any violation
// returns an error wrapping ErrPred.
func (p *Pred) Validate() error {
	if p == nil {
		return fmt.Errorf("%w: nil node", ErrPred)
	}
	nodes := 0
	return p.validate(0, &nodes)
}

func (p *Pred) validate(depth int, nodes *int) error {
	if p == nil {
		return fmt.Errorf("%w: nil node", ErrPred)
	}
	if depth > maxPredDepth {
		return fmt.Errorf("%w: deeper than %d", ErrPred, maxPredDepth)
	}
	if *nodes++; *nodes > maxPredNodes {
		return fmt.Errorf("%w: more than %d nodes", ErrPred, maxPredNodes)
	}
	clauses := 0
	if p.Tag != "" {
		clauses++
	}
	if len(p.AnyTag) > 0 {
		clauses++
		for _, t := range p.AnyTag {
			if t == "" {
				return fmt.Errorf("%w: empty tag in any_tag", ErrPred)
			}
		}
	}
	if p.Field != "" {
		clauses++
		if p.Min == nil && p.Max == nil {
			return fmt.Errorf("%w: field %q without min or max", ErrPred, p.Field)
		}
		if p.Min != nil && p.Max != nil && *p.Min > *p.Max {
			return fmt.Errorf("%w: field %q min %v > max %v", ErrPred, p.Field, *p.Min, *p.Max)
		}
	} else if p.Min != nil || p.Max != nil {
		return fmt.Errorf("%w: min/max without a field", ErrPred)
	}
	if len(p.And) > 0 {
		clauses++
		for _, c := range p.And {
			if err := c.validate(depth+1, nodes); err != nil {
				return err
			}
		}
	}
	if len(p.Or) > 0 {
		clauses++
		for _, c := range p.Or {
			if err := c.validate(depth+1, nodes); err != nil {
				return err
			}
		}
	}
	if p.Not != nil {
		clauses++
		if err := p.Not.validate(depth+1, nodes); err != nil {
			return err
		}
	}
	if clauses != 1 {
		return fmt.Errorf("%w: node must set exactly one clause, has %d", ErrPred, clauses)
	}
	return nil
}

// Canon returns the predicate's canonical encoding: a deterministic compact
// string equal for equal predicates, used as the serving cache key component
// and for cross-process equality checks. Child order is preserved (And(a,b)
// and And(b,a) are different keys — both are correct, they just cache
// separately).
func (p *Pred) Canon() string {
	var b strings.Builder
	p.canon(&b)
	return b.String()
}

func (p *Pred) canon(b *strings.Builder) {
	switch {
	case p == nil:
		b.WriteString("nil")
	case p.Tag != "":
		fmt.Fprintf(b, "tag(%q)", p.Tag)
	case len(p.AnyTag) > 0:
		b.WriteString("any(")
		for i, t := range p.AnyTag {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "%q", t)
		}
		b.WriteByte(')')
	case p.Field != "":
		fmt.Fprintf(b, "range(%q,", p.Field)
		writeBound(b, p.Min)
		b.WriteByte(',')
		writeBound(b, p.Max)
		b.WriteByte(')')
	case len(p.And) > 0:
		p.canonList(b, "and", p.And)
	case len(p.Or) > 0:
		p.canonList(b, "or", p.Or)
	case p.Not != nil:
		b.WriteString("not(")
		p.Not.canon(b)
		b.WriteByte(')')
	default:
		b.WriteString("invalid")
	}
}

func (p *Pred) canonList(b *strings.Builder, op string, list []*Pred) {
	b.WriteString(op)
	b.WriteByte('(')
	for i, c := range list {
		if i > 0 {
			b.WriteByte(',')
		}
		c.canon(b)
	}
	b.WriteByte(')')
}

func writeBound(b *strings.Builder, v *float64) {
	if v == nil {
		b.WriteByte('_')
		return
	}
	b.WriteString(strconv.FormatFloat(*v, 'g', -1, 64))
}

// Equal reports whether two predicates have the same canonical encoding.
// Both nil counts as equal.
func (p *Pred) Equal(o *Pred) bool {
	if p == nil || o == nil {
		return p == nil && o == nil
	}
	return p.Canon() == o.Canon()
}

// Matches evaluates the predicate directly against one payload: the
// reference a compiled Prog is tested against, and through MatchesEmpty the
// constant fold of an index with no attributes at all.
func (p *Pred) Matches(pt Point) bool {
	switch {
	case p.Tag != "":
		return hasTag(pt.Tags, p.Tag)
	case len(p.AnyTag) > 0:
		for _, t := range p.AnyTag {
			if hasTag(pt.Tags, t) {
				return true
			}
		}
		return false
	case p.Field != "":
		v, ok := pt.Ints[p.Field]
		if ok {
			return p.inRange(float64(v))
		}
		f, ok := pt.Floats[p.Field]
		if ok {
			return p.inRange(f)
		}
		return false
	case len(p.And) > 0:
		for _, c := range p.And {
			if !c.Matches(pt) {
				return false
			}
		}
		return true
	case len(p.Or) > 0:
		for _, c := range p.Or {
			if c.Matches(pt) {
				return true
			}
		}
		return false
	case p.Not != nil:
		return !p.Not.Matches(pt)
	}
	return false
}

// MatchesEmpty reports whether a point with no attributes at all satisfies
// the predicate. An index that carries no attribute store constant-folds a
// predicate to "keep everything" or "empty result" with this.
func (p *Pred) MatchesEmpty() bool { return p.Matches(Point{}) }

func (p *Pred) inRange(v float64) bool {
	if p.Min != nil && v < *p.Min {
		return false
	}
	if p.Max != nil && v > *p.Max {
		return false
	}
	return true
}

func hasTag(tags []string, want string) bool {
	for _, t := range tags {
		if t == want {
			return true
		}
	}
	return false
}

// Constructors. They build well-formed nodes; Validate still applies to
// anything assembled by hand or decoded from JSON.

// TagIs matches points carrying the tag.
func TagIs(tag string) *Pred { return &Pred{Tag: tag} }

// TagAny matches points carrying at least one of the tags.
func TagAny(tags ...string) *Pred { return &Pred{AnyTag: tags} }

// FieldBetween matches points whose field lies in [min, max] (inclusive).
func FieldBetween(field string, min, max float64) *Pred {
	return &Pred{Field: field, Min: &min, Max: &max}
}

// FieldAtLeast matches points whose field is >= min.
func FieldAtLeast(field string, min float64) *Pred {
	return &Pred{Field: field, Min: &min}
}

// FieldAtMost matches points whose field is <= max.
func FieldAtMost(field string, max float64) *Pred {
	return &Pred{Field: field, Max: &max}
}

// AllOf matches points satisfying every child predicate.
func AllOf(ps ...*Pred) *Pred { return &Pred{And: ps} }

// OneOf matches points satisfying at least one child predicate.
func OneOf(ps ...*Pred) *Pred { return &Pred{Or: ps} }

// NotOf matches points that do not satisfy the child predicate.
func NotOf(p *Pred) *Pred { return &Pred{Not: p} }

// Prog is a predicate compiled against one store: tag names resolved to
// vocabulary ids and field names to column indices, so per-row evaluation
// performs no map lookups. A name the store does not know compiles to a
// clause that never matches. Progs are immutable and safe for concurrent use.
type Prog struct {
	store *Store
	root  prog
}

type progOp int

const (
	opFalse progOp = iota // unknown name: never matches
	opTag
	opAnyTag
	opRange
	opAnd
	opOr
	opNot
)

type prog struct {
	op       progOp
	tagID    int32
	tagIDs   []int32
	field    int // column index
	min, max *float64
	kids     []prog
}

// Compile resolves the predicate against the store. The caller must have
// validated p.
func (st *Store) Compile(p *Pred) *Prog {
	return &Prog{store: st, root: st.compile(p)}
}

func (st *Store) compile(p *Pred) prog {
	switch {
	case p.Tag != "":
		id, ok := st.tagIndex[p.Tag]
		if !ok {
			return prog{op: opFalse}
		}
		return prog{op: opTag, tagID: id}
	case len(p.AnyTag) > 0:
		var ids []int32
		for _, t := range p.AnyTag {
			if id, ok := st.tagIndex[t]; ok {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			return prog{op: opFalse}
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		return prog{op: opAnyTag, tagIDs: ids}
	case p.Field != "":
		ci, ok := st.fieldIdx[p.Field]
		if !ok {
			return prog{op: opFalse}
		}
		return prog{op: opRange, field: ci, min: p.Min, max: p.Max}
	case len(p.And) > 0:
		return prog{op: opAnd, kids: st.compileList(p.And)}
	case len(p.Or) > 0:
		return prog{op: opOr, kids: st.compileList(p.Or)}
	case p.Not != nil:
		return prog{op: opNot, kids: []prog{st.compile(p.Not)}}
	}
	return prog{op: opFalse}
}

func (st *Store) compileList(list []*Pred) []prog {
	kids := make([]prog, len(list))
	for i, c := range list {
		kids[i] = st.compile(c)
	}
	return kids
}

// Match evaluates the compiled predicate against one store row.
func (pr *Prog) Match(row int32) bool { return pr.store.match(&pr.root, row) }

func (st *Store) match(p *prog, row int32) bool {
	switch p.op {
	case opTag:
		return st.rowHasTag(row, p.tagID)
	case opAnyTag:
		for _, id := range p.tagIDs {
			if st.rowHasTag(row, id) {
				return true
			}
		}
		return false
	case opRange:
		c := &st.fields[p.field]
		if !c.has(row) {
			return false
		}
		v := c.vals[row]
		if p.min != nil && v < *p.min {
			return false
		}
		if p.max != nil && v > *p.max {
			return false
		}
		return true
	case opAnd:
		for i := range p.kids {
			if !st.match(&p.kids[i], row) {
				return false
			}
		}
		return true
	case opOr:
		for i := range p.kids {
			if st.match(&p.kids[i], row) {
				return true
			}
		}
		return false
	case opNot:
		return !st.match(&p.kids[0], row)
	}
	return false
}
