package p2h_test

// Documentation lint: every exported symbol of the root package must carry a
// doc comment. The public API is the library's contract — an undocumented
// export either needs words or should not be exported. CI runs this test as
// its own step (see .github/workflows/ci.yml). And the documents describing the
// tree may name only tools, scripts, symbols, tests, files and formats that
// exist, and cite no frozen benchmark snapshot.

import (
	"bytes"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"p2h"
	"p2h/internal/balltree"
	"p2h/internal/dynamic"
	"p2h/internal/shard"
)

// currentDocs are the documents that describe the tree as it is. History files
// (CHANGES.md, EXPERIMENTS.md, ROADMAP.md, benchmark/README.md) are not among
// them: they name what was removed, and when.
var currentDocs = []string{
	"README.md", "DESIGN.md", "docs/TUNING.md", "docs/FORMAT.md", "doc.go", "deploy/Dockerfile",
	".claude/skills/verify/SKILL.md",
}

// TestDocsNameExistingToolsAndScripts: every cmd/<name>, scripts/<name>.sh,
// internal/<path> and examples/<path> a current document mentions must exist.
// A package path may carry a symbol suffix (internal/core.CheckQuery), which
// resolves to the package's directory.
func TestDocsNameExistingToolsAndScripts(t *testing.T) {
	mention := regexp.MustCompile(`\b(?:cmd/[a-z0-9]+\b|scripts/[A-Za-z0-9_]+\.sh\b|(?:internal|examples)/[A-Za-z0-9_./]*[A-Za-z0-9_])`)
	exists := func(path string) bool {
		if _, err := os.Stat(path); err == nil {
			return true
		}
		dir, last := path, ""
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			dir, last = path[:i], path[i+1:]
		}
		pkg, _, symbol := strings.Cut(last, ".")
		fi, err := os.Stat(dir + "/" + pkg)
		return symbol && err == nil && fi.IsDir()
	}
	eachMention(t, currentDocs, mention, func(doc, path string) {
		if !exists(path) {
			t.Errorf("%s mentions %s, which is not in the tree", doc, path)
		}
	})
}

// eachMention calls check once for every distinct match of mention in each of
// docs: the match, or its last group when mention has groups.
func eachMention(t *testing.T, docs []string, mention *regexp.Regexp, check func(doc, name string)) {
	t.Helper()
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, m := range mention.FindAllStringSubmatch(string(text), -1) {
			if name := m[len(m)-1]; !seen[name] {
				seen[name] = true
				check(doc, name)
			}
		}
	}
}

// TestDocsNameExistingTests: every Test*, Fuzz* and Benchmark* name a current
// document or the CI workflow mentions must begin the name of a function in
// some _test.go file. `go test -run TestGone` runs nothing and passes, so a
// stale name would turn a gate into a no-op without a word.
func TestDocsNameExistingTests(t *testing.T) {
	defined := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case strings.HasSuffix(path, "_test.go"):
			src, err := os.ReadFile(path)
			for _, m := range defined.FindAllStringSubmatch(string(src), -1) {
				funcs = append(funcs, m[1])
			}
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mention := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`)
	eachMention(t, append(slices.Clone(currentDocs), ".github/workflows/ci.yml"), mention, func(doc, name string) {
		if !slices.ContainsFunc(funcs, func(f string) bool { return strings.HasPrefix(f, name) }) {
			t.Errorf("%s mentions %s, which no test, fuzz or benchmark function is named", doc, name)
		}
	})
}

// TestDocsNameNoFrozenSnapshots: no current document cites a BENCH_<n>
// snapshot. Those files were written once, on hosts and in schemas no script
// reproduces, and are gone; a number a current document gives names the
// BENCHMARK.json metric and workload that measure it.
func TestDocsNameNoFrozenSnapshots(t *testing.T) {
	eachMention(t, currentDocs, regexp.MustCompile(`\bBENCH_[0-9]+`), func(doc, name string) {
		t.Errorf("%s cites %s, a frozen snapshot; cite a BENCHMARK.json metric or drop the number", doc, name)
	})
}

// TestDocsNameKnownFormats: every format magic a current document names is
// either written today — it appears in the bytes Save writes for one of the
// codec's variants, or in a fresh write-ahead log — or is a retired payload
// magic that a loader refuses by name. A format bump cannot leave the
// documents describing a format nothing writes or refuses.
func TestDocsNameKnownFormats(t *testing.T) {
	var written bytes.Buffer
	for name, ix := range p2h.CodecVariants(t) {
		if err := p2h.Save(&written, ix); err != nil {
			t.Fatalf("%s: Save: %v", name, err)
		}
	}
	dyn, err := p2h.New(nil, p2h.Spec{Kind: p2h.KindDynamic, Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.p2h.wal")
	w, err := p2h.AttachWAL(dyn, path, p2h.WALSyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	written.Write(wal)

	refused := func(magic string) bool {
		for _, retired := range []func(string) error{balltree.RetiredPayload, dynamic.RetiredPayload, shard.RetiredPayload} {
			if err := retired(magic); err != nil && strings.Contains(err.Error(), magic) {
				return true
			}
		}
		return false
	}
	eachMention(t, currentDocs, regexp.MustCompile(`\bP2H[A-Z]{2}[0-9]{3}\b`), func(doc, magic string) {
		if !bytes.Contains(written.Bytes(), []byte(magic)) && !refused(magic) {
			t.Errorf("%s names format %s, which nothing writes and no loader refuses by name", doc, magic)
		}
	})
}

// TestDocsLinksResolve: every relative Markdown link in a current document
// names a file or directory in the tree.
func TestDocsLinksResolve(t *testing.T) {
	link := regexp.MustCompile(`\]\(([^)\s]+)\)`)
	eachMention(t, currentDocs, link, func(doc, dest string) {
		target, _, _ := strings.Cut(dest, "#")
		if target == "" || strings.Contains(target, ":") {
			return // an anchor in the same document, or a URL
		}
		if _, err := os.Stat(filepath.Join(filepath.Dir(doc), target)); err != nil {
			t.Errorf("%s links to %s, which is not in the tree", doc, dest)
		}
	})
}

// rootPackageDoc parses the root package's non-test files as go doc sees them.
func rootPackageDoc(t *testing.T) *doc.Package {
	t.Helper()
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", notTest, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["p2h"]
	if !ok {
		t.Fatalf("package p2h not found in %v", pkgs)
	}
	return doc.New(pkg, "p2h", 0)
}

// TestDocsNameExistingSymbols: every p2h.<Identifier> the current documents
// mention must be exported by the root package — a deleted constructor leaves
// no instructions behind — and every <Type>.<Member> of a root type must be a
// method or field of it.
func TestDocsNameExistingSymbols(t *testing.T) {
	d := rootPackageDoc(t)
	exported := map[string]bool{}
	values := func(vs []*doc.Value) {
		for _, v := range vs {
			for _, name := range v.Names {
				exported[name] = true
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			exported[f.Name] = true
		}
	}
	values(d.Consts)
	values(d.Vars)
	funcs(d.Funcs)
	for _, typ := range d.Types {
		exported[typ.Name] = true
		values(typ.Consts)
		values(typ.Vars)
		funcs(typ.Funcs)
	}

	mention := regexp.MustCompile(`\bp2h\.([A-Z][A-Za-z0-9_]*)`)
	eachMention(t, currentDocs, mention, func(doc, name string) {
		if !exported[name] {
			t.Errorf("%s mentions p2h.%s, which the root package does not export", doc, name)
		}
	})

	// Type.Member, for the root package's own (non-alias) types: the member
	// must be one of the type's exported methods, interface methods or
	// struct fields. A removed method leaves no instructions behind either.
	members := map[string]bool{}
	var types []string
	for _, typ := range d.Types {
		spec := typ.Decl.Specs[0].(*ast.TypeSpec)
		if spec.Assign.IsValid() {
			continue // an alias: its members live in another package
		}
		types = append(types, typ.Name)
		for _, m := range typ.Methods {
			members[typ.Name+"."+m.Name] = true
		}
		var fields *ast.FieldList
		switch tt := spec.Type.(type) {
		case *ast.StructType:
			fields = tt.Fields
		case *ast.InterfaceType:
			fields = tt.Methods
		}
		if fields != nil {
			for _, f := range fields.List {
				for _, n := range f.Names {
					members[typ.Name+"."+n.Name] = true
				}
			}
		}
	}
	member := regexp.MustCompile(`(?:^|[^.\w])(?:p2h\.)?((?:` + strings.Join(types, "|") + `)\.[A-Z][A-Za-z0-9_]*)`)
	eachMention(t, currentDocs, member, func(doc, name string) {
		if !members[name] {
			t.Errorf("%s mentions %s, which the root package does not define", doc, name)
		}
	})
}

func TestExportedSymbolsDocumented(t *testing.T) {
	d := rootPackageDoc(t)

	var missing []string
	report := func(kind, name, comment string) {
		if comment == "" && ast.IsExported(name) {
			missing = append(missing, kind+" "+name)
		}
	}
	// A const/var group counts as documented when either the group or the
	// individual spec carries a comment.
	values := func(kind string, vs []*doc.Value) {
		for _, v := range vs {
			if v.Doc != "" {
				continue
			}
			for _, spec := range v.Decl.Specs {
				vspec, ok := spec.(*ast.ValueSpec)
				if !ok || vspec.Doc.Text() != "" || vspec.Comment.Text() != "" {
					continue
				}
				for _, ident := range vspec.Names {
					report(kind, ident.Name, "")
				}
			}
		}
	}

	if d.Doc == "" {
		missing = append(missing, "package p2h")
	}
	values("const", d.Consts)
	values("var", d.Vars)
	for _, f := range d.Funcs {
		report("func", f.Name, f.Doc)
	}
	for _, typ := range d.Types {
		report("type", typ.Name, typ.Doc)
		for _, f := range typ.Funcs {
			report("func", f.Name, f.Doc)
		}
		for _, m := range typ.Methods {
			report("method "+typ.Name+".", m.Name, m.Doc)
		}
		values("const", typ.Consts)
		values("var", typ.Vars)
	}

	for _, m := range missing {
		t.Errorf("undocumented exported symbol: %s", m)
	}
}
