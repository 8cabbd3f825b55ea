package harness

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	p2h "p2h"

	"p2h/internal/dataset"
)

func tinySpec(family dataset.Family, d int) dataset.Spec {
	return dataset.Spec{Name: "tiny", Family: family, RawDim: d, ScaledN: 400, Clusters: 4}
}

// TestHarnessBuildsThroughNew holds the harness to the library's one build
// path: its non-test files import p2h and no index package, so every method
// it measures is a p2h.Spec that p2h.New builds.
func TestHarnessBuildsThroughNew(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var imports []string
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		ast, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range ast.Imports {
			path, _ := strconv.Unquote(im.Path.Value)
			imports = append(imports, path)
		}
	}
	if !slices.Contains(imports, "p2h") {
		t.Errorf("harness does not import p2h (imports %v)", imports)
	}
	for _, pkg := range []string{"balltree", "nh", "fh", "kdtree", "linearscan", "quant", "shard", "dynamic"} {
		if slices.Contains(imports, "p2h/internal/"+pkg) {
			t.Errorf("harness imports p2h/internal/%s: build indexes through p2h.New", pkg)
		}
	}
}

func TestPrepareDeterministic(t *testing.T) {
	spec := tinySpec(dataset.FamilyClustered, 8)
	a := Prepare(spec, 200, 5, 7)
	b := Prepare(spec, 200, 5, 7)
	if a.N() != b.N() || a.Queries.N != b.Queries.N {
		t.Fatal("same seed, different workload shape")
	}
	for i := range a.Raw.Data {
		if a.Raw.Data[i] != b.Raw.Data[i] {
			t.Fatal("same seed, different data")
		}
	}
}

func TestGroundTruthCached(t *testing.T) {
	w := Prepare(tinySpec(dataset.FamilyUniform, 6), 150, 4, 1)
	g1 := w.GroundTruth(5)
	g2 := w.GroundTruth(5)
	if &g1[0] != &g2[0] {
		t.Fatal("ground truth not cached")
	}
	if len(g1) != w.Queries.N || len(g1[0]) != 5 {
		t.Fatalf("ground truth shape %dx%d", len(g1), len(g1[0]))
	}
}

func TestRunFullBudgetExactForTrees(t *testing.T) {
	w := Prepare(tinySpec(dataset.FamilyClustered, 10), 400, 8, 2)
	p := Params{Spec: p2h.Spec{Seed: 3}}
	scan := Method{Name: "Scan", Spec: p2h.Spec{Kind: p2h.KindLinearScan}}
	for _, m := range []Method{BallTree(p), BCTree(p), KDTree(Params{}), scan} {
		ix := m.Build(w.Raw)
		ev := Run(ix, w, p2h.SearchOptions{K: 5}, false)
		if ev.Recall < 1-1e-12 {
			t.Fatalf("%s: unlimited budget must be exact, recall %v", m.Name, ev.Recall)
		}
		if ev.QueryMS <= 0 {
			t.Fatalf("%s: query time must be positive", m.Name)
		}
	}
}

func TestBuildTimedMeasures(t *testing.T) {
	w := Prepare(tinySpec(dataset.FamilyClustered, 10), 300, 4, 3)
	br := BCTree(Params{Spec: p2h.Spec{Seed: 1}}).BuildTimed(w.Raw)
	if br.BuildTime <= 0 || br.Bytes <= 0 || br.Index == nil || br.Method != "BC-Tree" {
		t.Fatalf("build result %+v", br)
	}
}

func TestSweepMonotoneBudgets(t *testing.T) {
	w := Prepare(tinySpec(dataset.FamilyClustered, 12), 800, 10, 4)
	ix := BCTree(Params{Spec: p2h.Spec{Seed: 5}}).Build(w.Raw)
	evals := Sweep(ix, w, 10, nil, p2h.SearchOptions{})
	if len(evals) != len(BudgetFractions) {
		t.Fatalf("%d evals", len(evals))
	}
	if evals[len(evals)-1].Recall < 1-1e-12 {
		t.Fatalf("full fraction must be exact, got %v", evals[len(evals)-1].Recall)
	}
	// Recall must not collapse as budget grows (tiny jitter tolerated).
	for i := 1; i < len(evals); i++ {
		if evals[i].Recall < evals[i-1].Recall-0.05 {
			t.Fatalf("recall dropped hard at %d: %v -> %v", i, evals[i-1].Recall, evals[i].Recall)
		}
	}
}

func TestFindBudgetHitsTarget(t *testing.T) {
	w := Prepare(tinySpec(dataset.FamilyClustered, 12), 800, 10, 5)
	ix := BallTree(Params{Spec: p2h.Spec{Seed: 6}}).Build(w.Raw)
	ev := FindBudget(ix, w, 10, 0.8, p2h.SearchOptions{})
	if ev.Recall < 0.8 {
		t.Fatalf("budget %d recall %v < target", ev.Budget, ev.Recall)
	}
	if ev.Budget <= 0 || ev.Budget > w.N() {
		t.Fatalf("budget %d out of range", ev.Budget)
	}
}

func TestMethodsHaveDistinctNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range DefaultMethods(Params{}, 10) {
		if seen[m.Name] {
			t.Fatalf("duplicate method name %s", m.Name)
		}
		seen[m.Name] = true
	}
	if len(table3Methods(Params{}, 10)) != 6 {
		t.Fatal("Table III needs six method columns")
	}
}

// TestHashingLambda pins NH/FH's sampled dimension: LambdaFactor times the
// lifted dimension d+1 (default factor 2), capped by MaxLambda, with the
// reproduction's M default of 32.
func TestHashingLambda(t *testing.T) {
	for _, c := range []struct {
		p    Params
		d    int
		want int
	}{
		{Params{}, 10, 22},
		{Params{LambdaFactor: 8}, 10, 88},
		{Params{LambdaFactor: 8, MaxLambda: 50}, 10, 50},
	} {
		for _, m := range []Method{NH(c.p, c.d), FH(c.p, c.d)} {
			if m.Spec.Lambda != c.want || m.Spec.M != 32 {
				t.Errorf("%s %+v d=%d: Spec %+v, want Lambda %d and M 32", m.Name, c.p, c.d, m.Spec, c.want)
			}
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"A", "LongColumn"},
	}
	tab.AddRow("x", "1")
	tab.AddRow("longer", "2")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title + header + rule + 2 rows
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "demo") {
		t.Fatalf("missing title: %q", lines[0])
	}
	// All body lines align to the same width.
	if len(lines[1]) != len(lines[2]) {
		t.Fatalf("rule width %d != header width %d", len(lines[2]), len(lines[1]))
	}
}

func TestFormatSeriesShape(t *testing.T) {
	out := FormatSeries("fig", "x", "y", []Series{
		{Name: "a", Points: []Point{{1, 2}, {3, 4}}},
	})
	if !strings.Contains(out, "fig") || !strings.Contains(out, "a (x, y):") {
		t.Fatalf("series format:\n%s", out)
	}
	if strings.Count(out, "\n") != 4 {
		t.Fatalf("unexpected line count:\n%s", out)
	}
}
