package p2h_test

// Documentation lint: every exported symbol of the root package must carry a
// doc comment. The public API is the library's contract — an undocumented
// export either needs words or should not be exported. CI runs this test as
// its own step (see .github/workflows/ci.yml). And the documents that describe
// the tree as it is may only name tools, scripts and p2h symbols that exist.

import (
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameExistingToolsAndScripts: every cmd/<name> and scripts/<name>.sh
// mentioned by a document that describes the tree as it is must exist. History
// files (CHANGES.md, EXPERIMENTS.md, ROADMAP.md, benchmark/README.md) are
// exempt: they name what was removed, and when.
func TestDocsNameExistingToolsAndScripts(t *testing.T) {
	mention := regexp.MustCompile(`\b(?:cmd/[a-z0-9]+|scripts/[A-Za-z0-9_]+\.sh)\b`)
	for _, doc := range []string{
		"README.md", "DESIGN.md", "docs/TUNING.md", "doc.go", "deploy/Dockerfile",
		".claude/skills/verify/SKILL.md",
	} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		missing := map[string]bool{}
		for _, path := range mention.FindAllString(string(text), -1) {
			if _, err := os.Stat(path); err != nil && !missing[path] {
				missing[path] = true
				t.Errorf("%s mentions %s, which is not in the tree", doc, path)
			}
		}
	}
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
// no instructions behind. The same history files are exempt as above.
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
	for _, doc := range []string{"README.md", "DESIGN.md", "docs/TUNING.md", "doc.go"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		missing := map[string]bool{}
		for _, m := range mention.FindAllStringSubmatch(string(text), -1) {
			if name := m[1]; !exported[name] && !missing[name] {
				missing[name] = true
				t.Errorf("%s mentions p2h.%s, which the root package does not export", doc, name)
			}
		}
	}
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
