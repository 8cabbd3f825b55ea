package p2h

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestEveryKindLoadsOrDocumentsBuildOnly: the kind table's invariant as the
// exported surface shows it — each kind either round-trips through Save/Load
// or carries a documented build-only marker (never silently neither).
func TestEveryKindLoadsOrDocumentsBuildOnly(t *testing.T) {
	kinds := Kinds()
	if len(kinds) < 9 {
		t.Fatalf("only %d kinds: %v", len(kinds), kinds)
	}
	persistable := map[string]bool{
		KindBallTree: true, KindBCTree: true, KindSharded: true, KindDynamic: true,
	}
	for _, kind := range kinds {
		ok, buildOnly, err := KindIsPersistable(kind)
		if err != nil {
			t.Fatalf("KindIsPersistable(%q): %v", kind, err)
		}
		if ok == (buildOnly != "") {
			t.Fatalf("kind %q: persistable=%v but build-only marker %q", kind, ok, buildOnly)
		}
		if want := persistable[kind]; ok != want {
			t.Fatalf("kind %q: persistable = %v, want %v", kind, ok, want)
		}
	}
	if _, _, err := KindIsPersistable("nope"); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("err = %v, want ErrUnknownKind", err)
	}
}

// TestKindTableIsWellFormed asserts of the static kind table what registering
// kinds at run time used to enforce one descriptor at a time: names and
// aliases are lower-case and unique across the table, rows are in name order
// (Kinds() promises it), every kind builds, and a kind has either its whole
// codec — save, load, specOf and the shape reader Inspect dispatches to — or
// none of it and the reason why.
func TestKindTableIsWellFormed(t *testing.T) {
	seen := map[string]string{}
	for i, k := range kinds {
		if i > 0 && kinds[i-1].name >= k.name {
			t.Errorf("kind %q follows %q: the table is not in name order", k.name, kinds[i-1].name)
		}
		for _, name := range append([]string{k.name}, k.aliases...) {
			if name == "" || name != strings.ToLower(strings.TrimSpace(name)) {
				t.Errorf("kind %q: name %q is not a lower-case token", k.name, name)
			}
			if owner, dup := seen[name]; dup {
				t.Errorf("kind %q: name %q already belongs to %q", k.name, name, owner)
			}
			seen[name] = k.name
		}
		if k.build == nil {
			t.Errorf("kind %q has no builder", k.name)
		}
		codec := []bool{k.save != nil, k.load != nil, k.specOf != nil, k.shape != nil}
		for _, set := range codec[1:] {
			if set != codec[0] {
				t.Errorf("kind %q: codec half-set (save, load, specOf, shape = %v)", k.name, codec)
				break
			}
		}
		if (k.load != nil) == (k.buildOnly != "") {
			t.Errorf("kind %q: wants exactly one of a loader and a build-only reason, has loader=%v reason=%q",
				k.name, k.load != nil, k.buildOnly)
		}
	}
}

// foreignIndex is an Index implemented outside the package.
type foreignIndex struct{ Index }

// TestForeignIndexHasNoKind: the package knows the kind of what it handed out
// and nothing else's — an Index implemented elsewhere still searches (through
// SearchBatch and Server, which take any Index) but has no kind, no codec and
// no attribute surface, and says so instead of panicking.
func TestForeignIndexHasNoKind(t *testing.T) {
	ix := foreignIndex{NewLinearScan(specTestData(40, 4, 1))}
	if got := KindOf(ix); got != "" {
		t.Fatalf("KindOf(foreign) = %q", got)
	}
	if err := Save(&bytes.Buffer{}, ix); err == nil {
		t.Fatal("Save accepted an index of another package")
	}
	if err := AttachAttributes(ix, make([]PointAttrs, ix.N())); err == nil {
		t.Fatal("AttachAttributes accepted an index of another package")
	}
}
