package main

import "testing"

func TestList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("-list: %v", err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-run", "table1", "-scale", "0.05"}); err != nil {
		t.Fatalf("-run table1: %v", err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "fig99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestNonPositiveScale: a zero or negative -scale is an error, not a
// silent run at full paper scale.
func TestNonPositiveScale(t *testing.T) {
	for _, s := range []string{"0", "-0.5"} {
		if err := run([]string{"-run", "table1", "-scale", s}); err == nil {
			t.Errorf("-scale %s accepted", s)
		}
	}
}

func TestNoAction(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no-op invocation accepted")
	}
}
