package p2h

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// TestEveryKindLoadsOrDocumentsBuildOnly: the registry invariant — each
// registered kind either round-trips through Save/Load or carries a
// documented build-only marker (never silently neither).
func TestEveryKindLoadsOrDocumentsBuildOnly(t *testing.T) {
	kinds := Kinds()
	if len(kinds) < 9 {
		t.Fatalf("only %d kinds registered: %v", len(kinds), kinds)
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

// registryTestIndex is a toy backend for registration tests.
type registryTestIndex struct {
	*LinearScan
}

func TestRegisterKindValidation(t *testing.T) {
	build := func(data *Matrix, spec Spec) (Index, error) {
		if err := checkBuildData("regtest", data, spec); err != nil {
			return nil, err
		}
		return &registryTestIndex{NewLinearScan(data)}, nil
	}
	cases := []struct {
		name string
		kind IndexKind
	}{
		{"empty name", IndexKind{Build: build, BuildOnly: "x"}},
		{"no build", IndexKind{Name: "regtest-nobuild", BuildOnly: "x"}},
		{"half persistence", IndexKind{Name: "regtest-half", Build: build,
			Save: func(io.Writer, Index) error { return nil }, BuildOnly: "x"}},
		{"no loader no marker", IndexKind{Name: "regtest-neither", Build: build}},
		{"marker on persistable", IndexKind{Name: "regtest-both", Build: build,
			Save:      func(io.Writer, Index) error { return nil },
			Load:      func(io.Reader, Spec) (Index, error) { return nil, nil },
			Owns:      func(Index) bool { return false },
			SpecOf:    func(Index) Spec { return Spec{} },
			BuildOnly: "x"}},
		{"persistable without owns", IndexKind{Name: "regtest-noowns", Build: build,
			Save: func(io.Writer, Index) error { return nil },
			Load: func(io.Reader, Spec) (Index, error) { return nil, nil }}},
		{"name collision", IndexKind{Name: KindBCTree, Build: build, BuildOnly: "x"}},
		{"alias collision", IndexKind{Name: "regtest-alias", Aliases: []string{"bc"}, Build: build, BuildOnly: "x"}},
	}
	for _, c := range cases {
		if err := RegisterKind(c.kind); err == nil {
			t.Fatalf("%s: RegisterKind accepted an invalid descriptor", c.name)
		}
	}
}

// TestRegisterCustomKind: the extensibility contract — a newly registered
// backend immediately works through New, KindOf and Save's dispatch.
func TestRegisterCustomKind(t *testing.T) {
	err := RegisterKind(IndexKind{
		Name:        "regtest-custom",
		Aliases:     []string{"regtest-alias2"},
		Description: "test-only wrapper over the linear scan",
		Build: func(data *Matrix, spec Spec) (Index, error) {
			if err := checkBuildData("regtest-custom", data, spec); err != nil {
				return nil, err
			}
			return &registryTestIndex{NewLinearScan(data)}, nil
		},
		Owns:      func(ix Index) bool { _, ok := ix.(*registryTestIndex); return ok },
		BuildOnly: "test-only kind",
	})
	if err != nil {
		t.Fatalf("RegisterKind: %v", err)
	}

	data := specTestData(60, 4, 1)
	ix, err := New(data, Spec{Kind: "REGTEST-ALIAS2"})
	if err != nil {
		t.Fatalf("New via alias: %v", err)
	}
	if got := KindOf(ix); got != "regtest-custom" {
		t.Fatalf("KindOf = %q", got)
	}
	found := false
	for _, k := range Kinds() {
		if k == "regtest-custom" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Kinds() missing the custom kind: %v", Kinds())
	}
	// Build-only: Save refuses with the documented marker.
	var buf bytes.Buffer
	if err := Save(&buf, ix); err == nil || !strings.Contains(err.Error(), "test-only kind") {
		t.Fatalf("Save on build-only custom kind: %v", err)
	}
	// Duplicate registration is rejected.
	if err := RegisterKind(IndexKind{
		Name:      "regtest-custom",
		Build:     func(*Matrix, Spec) (Index, error) { return nil, nil },
		BuildOnly: "x",
	}); err == nil {
		t.Fatal("duplicate RegisterKind accepted")
	}
}
