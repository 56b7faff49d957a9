package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// goldenFile holds exact Gas totals per paper trace and contender for
// goldenSeed, one set per run size. A refactor of ads, chain, core or
// policy that shifts Gas fails against it instead of passing silently.
const (
	goldenFile = "golden_gas.json"
	goldenSeed = 1
)

type golden struct {
	Seed uint64 `json:"seed"`
	// Sets is keyed by sizeKey: "smoke" or "seconds<N>".
	Sets map[string]map[string]gasTotals `json:"sets"`
}

func (e *env) sizeKey() string {
	if e.smoke {
		return fmt.Sprintf("smoke-seconds%d", e.seconds)
	}
	return fmt.Sprintf("seconds%d", e.seconds)
}

func loadGolden(path string) (golden, error) {
	var g golden
	b, err := os.ReadFile(path)
	if err != nil {
		return g, err
	}
	return g, json.Unmarshal(b, &g)
}

// checkGolden compares a run's totals with the recorded set when the run
// is on the golden seed at a recorded size; any other run only gets the
// determinism replay.
func checkGolden(e *env, totals map[string]gasTotals, rep *report) error {
	if e.seed != goldenSeed {
		return nil
	}
	g, err := loadGolden(filepath.Join(e.dir, goldenFile))
	if err != nil {
		return fmt.Errorf("golden Gas: %w", err)
	}
	want, ok := g.Sets[e.sizeKey()]
	if !ok {
		rep.note("golden Gas: no set recorded for %s, exact totals not checked", e.sizeKey())
		return nil
	}
	for name, w := range want {
		if got := totals[name]; got != w {
			rep.mismatch("golden Gas %s/%s: got %+v want %+v", e.sizeKey(), name, got, w)
		}
	}
	rep.note("golden Gas: %d traces x 3 contenders match %s exactly", len(want), goldenFile)
	return nil
}
