package harness

import (
	"strings"
	"testing"

	p2h "p2h"
)

// tinyCfg keeps experiment smoke tests fast: small point counts, few queries,
// cheap hash parameters.
func tinyCfg(sets ...string) Config {
	return Config{
		Scale:  0.02, // Music: 20000*0.02 = 400 points
		NQ:     4,
		K:      5,
		Seed:   1,
		Sets:   sets,
		Params: Params{Spec: p2h.Spec{LeafSize: 25, M: 4, L: 2}},
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("fig99", tinyCfg("Music")); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestUnknownSetErrors(t *testing.T) {
	if _, err := Table2(tinyCfg("NotASet")); err == nil {
		t.Fatal("unknown set must error")
	}
}

func TestTable2Smoke(t *testing.T) {
	out, err := Table2(tinyCfg("Music", "Cifar-10"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table II", "Music", "Cifar-10", "Rating", "Image"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTable3Smoke(t *testing.T) {
	out, err := Table3(tinyCfg("Music"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table III", "BC-Tree", "Ball-Tree", "NH(l=d)", "NH(l=8d)", "FH(l=d)", "FH(l=8d)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig5Smoke(t *testing.T) {
	out, err := Fig5(tinyCfg("Music"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig 5", "BC-Tree", "Ball-Tree", "FH", "NH", "recall%", "ms/query"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig6Smoke(t *testing.T) {
	out, err := Fig6(tinyCfg("Music"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Fig 6") || !strings.Contains(out, "80% recall") {
		t.Fatalf("fig6 output:\n%s", out)
	}
}

func TestFig7Smoke(t *testing.T) {
	out, err := Fig7(tinyCfg("Music"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"BC-Tree (center)", "BC-Tree (lower bound)", "Ball-Tree (center)", "Ball-Tree (lower bound)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig8Smoke(t *testing.T) {
	out, err := Fig8(tinyCfg("Music"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"BC-Tree", "BC-Tree-wo-C", "BC-Tree-wo-B", "BC-Tree-wo-BC"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig9Smoke(t *testing.T) {
	cfg := tinyCfg("Deep100M")
	cfg.Scale = 0.003 // 200000*0.003 = 600 points
	out, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Fig 9") || !strings.Contains(out, "Deep100M") {
		t.Fatalf("fig9 output:\n%s", out)
	}
}

func TestFig10Smoke(t *testing.T) {
	out, err := Fig10(tinyCfg("Cifar-10"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig 10", "Verification", "Table Lookup", "Lower Bounds", "Others"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig11Smoke(t *testing.T) {
	out, err := Fig11(tinyCfg("Music"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig 11", "N0=100", "N0=10000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestAblationSmoke(t *testing.T) {
	out, err := Ablation(tinyCfg("Music"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"BC ms", "center IPs off", "KD-Tree ms", "Ball-Tree ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRunExperimentDispatchesAll(t *testing.T) {
	cfg := tinyCfg("Music")
	for _, name := range Experiments() {
		if name == "fig9" || name == "fig10" {
			continue // covered by dedicated smoke tests with their own sets
		}
		if _, err := RunExperiment(name, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
