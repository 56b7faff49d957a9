package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// exactMetrics are pure functions of (workload, seed, seconds): two runs of
// one build must agree to the last digit.
var exactMetrics = map[string]bool{"gas_per_op": true, "gas_vs_best_static": true}

// selfcheckResult is what -selfcheck writes: both sets, per workload.
type selfcheckResult struct {
	Seed    uint64                           `json:"seed"`
	Seconds int                              `json:"seconds"`
	Sets    [2]map[string]map[string]float64 `json:"sets"`
}

// runOnce runs one untraced workload in a fresh process of this same binary
// and returns its metrics.
func runOnce(workload string, seed uint64, seconds int) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w\n%s", workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	if !line.Correct {
		return nil, fmt.Errorf("%s: run reported correct=false", workload)
	}
	m := make(map[string]float64)
	for name, v := range line.Metrics {
		m[name] = v.Value
	}
	return m, nil
}

// worsening is by how much of a's value b is worse than a (negative when b
// is better).
func worsening(spec metricSpec, a, b float64) float64 {
	if spec.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSelfcheck runs every workload twice on the same build and fails if the
// second set is worse than the first by more than a metric's bound, in
// either direction of run order, or if an exact metric differs at all.
func runSelfcheck(seed uint64, seconds int) int {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	res := selfcheckResult{Seed: seed, Seconds: seconds}
	for set := range res.Sets {
		res.Sets[set] = make(map[string]map[string]float64)
		for _, w := range names {
			fmt.Printf("selfcheck set %d: %s\n", set+1, w)
			m, err := runOnce(w, seed, seconds)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			res.Sets[set][w] = m
		}
	}
	bad := 0
	fmt.Printf("%-20s %-20s %16s %16s %9s %7s\n", "workload", "metric", "set 1", "set 2", "spread", "bound")
	for _, w := range names {
		for _, spec := range endToEnd {
			a, b := res.Sets[0][w][spec.Name], res.Sets[1][w][spec.Name]
			spread := max(worsening(spec, a, b), worsening(spec, b, a))
			verdict := ""
			switch {
			case exactMetrics[spec.Name] && a != b:
				verdict, bad = "  NOT EXACT", bad+1
			case spread > spec.Bound:
				verdict, bad = "  OVER BOUND", bad+1
			}
			fmt.Printf("%-20s %-20s %16.6f %16.6f %8.2f%% %6.1f%%%s\n", w, spec.Name, a, b, 100*spread, 100*spec.Bound, verdict)
		}
	}
	b, _ := json.MarshalIndent(res, "", "  ")
	path := filepath.Join(outDir, "selfcheck.json")
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	fmt.Printf("selfcheck: %d metric(s) outside their bound; both sets written to %s\n", bad, path)
	if bad > 0 {
		return 1
	}
	return 0
}
