package bench

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// smokeScale keeps the smoke tests fast; the real runs happen through the
// root bench_test.go and cmd/grubbench.
const smokeScale = 0.05

func runSmoke(t *testing.T, id string) string {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(Config{W: &buf, Scale: smokeScale, Seed: 7}); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := buf.String()
	if len(out) == 0 {
		t.Fatalf("%s produced no output", id)
	}
	return out
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the evaluation must have a runner.
	want := []string{
		"table1", "fig2", "fig3", "fig5", "table3", "fig6", "table6",
		"fig16", "fig7", "fig8a", "fig8b", "fig9", "table4", "fig11",
		"fig12a", "fig12b", "fig13a", "fig13b", "fig14", "fig15", "table5",
	}
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Errorf("missing experiment %s", id)
		}
	}
	if len(Registry) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(Registry), len(want))
	}
}

// TestRegistryIsThePaper keeps the registry to the paper's evaluation:
// every ID names one of its tables or figures. Serving performance belongs
// to the repo's benchmark, not here.
func TestRegistryIsThePaper(t *testing.T) {
	paperID := regexp.MustCompile(`^(table|fig)\d+[ab]?$`)
	for _, e := range Registry {
		if !paperID.MatchString(e.ID) {
			t.Errorf("experiment %q is not a paper table or figure", e.ID)
		}
	}
}

// TestRegistryGolden guards the registry as experiments are added: every
// registered experiment must run at tiny scale without error and emit
// non-empty output through its ByID handle.
func TestRegistryGolden(t *testing.T) {
	for _, exp := range Registry {
		t.Run(exp.ID, func(t *testing.T) {
			e, err := ByID(exp.ID)
			if err != nil {
				t.Fatal(err)
			}
			if e.Title == "" {
				t.Error("experiment has no title")
			}
			var buf bytes.Buffer
			if err := e.Run(Config{W: &buf, Scale: 0.02, Seed: 11}); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id resolved")
	}
}

func TestTable1Smoke(t *testing.T) {
	out := runSmoke(t, "table1")
	if !strings.Contains(out, "70.4") && !strings.Contains(out, "70.3") && !strings.Contains(out, "70.5") {
		t.Errorf("table1 zero-read fraction missing:\n%s", out)
	}
}

func TestFig3Smoke(t *testing.T) {
	out := runSmoke(t, "fig3")
	if !strings.Contains(out, "BL1") || !strings.Contains(out, "256") {
		t.Errorf("fig3 output incomplete:\n%s", out)
	}
}

func TestFig7Smoke(t *testing.T)   { runSmoke(t, "fig7") }
func TestFig8aSmoke(t *testing.T)  { runSmoke(t, "fig8a") }
func TestFig8bSmoke(t *testing.T)  { runSmoke(t, "fig8b") }
func TestFig11Smoke(t *testing.T)  { runSmoke(t, "fig11") }
func TestFig12aSmoke(t *testing.T) { runSmoke(t, "fig12a") }
func TestFig12bSmoke(t *testing.T) { runSmoke(t, "fig12b") }
func TestFig2Smoke(t *testing.T)   { runSmoke(t, "fig2") }
func TestFig16Smoke(t *testing.T)  { runSmoke(t, "table6"); runSmoke(t, "fig16") }

func TestFig5Smoke(t *testing.T) {
	out := runSmoke(t, "fig5")
	if !strings.Contains(out, "aggregate feed Gas") {
		t.Errorf("fig5 aggregates missing:\n%s", out)
	}
}

func TestTable3Smoke(t *testing.T) {
	out := runSmoke(t, "table3")
	if !strings.Contains(out, "SCoinIssuer") {
		t.Errorf("table3 output incomplete:\n%s", out)
	}
}

func TestFig6Smoke(t *testing.T) {
	out := runSmoke(t, "fig6")
	if !strings.Contains(out, "GRuB saving") {
		t.Errorf("fig6 savings line missing:\n%s", out)
	}
}

func TestFig9Smoke(t *testing.T)   { runSmoke(t, "fig9") }
func TestFig15Smoke(t *testing.T)  { runSmoke(t, "fig15") }
func TestTable5Smoke(t *testing.T) { runSmoke(t, "table5") }
