package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot locates the repository root from the test's working directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// TestRepoDocsAreConsistent runs the real gate against the real repo: this
// is the test CI's docs job executes, so a broken link, an undocumented
// route or a documented route or metric that is gone fails the build.
func TestRepoDocsAreConsistent(t *testing.T) {
	live, _, err := checkLiveExposition(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	problems, err := run(repoRoot(t), live)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestLiveExpositionConsistent runs the live half of the metrics lint
// against the real gateway: the scrape must parse and every served
// grub_* family must be documented.
func TestLiveExpositionConsistent(t *testing.T) {
	_, problems, err := checkLiveExposition(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestCatchesBrokenLink pins that the checker actually detects problems.
func TestCatchesBrokenLink(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("README.md", "[missing](docs/NOPE.md) and [bad anchor](docs/API.md#nope)")
	write("docs/API.md", "# API\n\n`GET /feeds` only\n")
	write("internal/stream/frame.go",
		"package stream\nvar routes = [NumRoutes]struct{ pattern, media string }{\n\tRouteListFeeds: {\"GET /feeds\", \"\"},\n\tRouteOps: {\"POST /feeds/{id}/ops\", OpsMediaType},\n}\n")

	problems, err := run(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(problems, "\n")
	for _, want := range []string{"NOPE.md", "#nope", `route "POST /feeds/{id}/ops"`} {
		if !strings.Contains(joined, want) {
			t.Errorf("problems missing %q:\n%s", want, joined)
		}
	}
	if len(problems) != 3 {
		t.Errorf("got %d problems, want 3:\n%s", len(problems), joined)
	}
}

// TestCatchesUndocumentedMetric pins that the metrics lint flags a
// registered "grub_..." metric name missing from docs/API.md, tolerates
// documented ones, and ignores _test.go files.
func TestCatchesUndocumentedMetric(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("README.md", "")
	write("docs/API.md", "# API\n\n`GET /feeds` and `grub_documented_total`.\n")
	write("internal/stream/frame.go",
		"package stream\nvar routes = [NumRoutes]struct{ pattern, media string }{\n\tRouteListFeeds: {\"GET /feeds\", \"\"},\n}\n")
	write("internal/server/metrics.go",
		"package server\nconst a = \"grub_documented_total\"\nconst b = \"grub_missing_total\"\n")
	write("internal/server/metrics_test.go",
		"package server\nconst c = \"grub_testonly_total\"\n")

	problems, err := run(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(problems, "\n")
	if !strings.Contains(joined, `metric "grub_missing_total"`) {
		t.Errorf("problems missing grub_missing_total:\n%s", joined)
	}
	if strings.Contains(joined, "grub_documented_total") || strings.Contains(joined, "grub_testonly_total") {
		t.Errorf("false positive:\n%s", joined)
	}
	if len(problems) != 1 {
		t.Errorf("got %d problems, want 1:\n%s", len(problems), joined)
	}
}

// TestCatchesStaleGoRun pins that the command check flags a `go run` of a
// directory that is gone or holds no main package, accepts a real command,
// and checks every alternative of a <a|b> placeholder.
func TestCatchesStaleGoRun(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("README.md", "```sh\ngo run ./cmd/grubd -addr :8080\ngo run ./cmd/tracegen -trace ycsb\n```\n")
	write("docs/API.md", "# API\n\n`GET /feeds`; run `go run ./internal/lib`.\n")
	write(".claude/skills/verify/SKILL.md", "`go run ./examples/<quickstart|gone>`\n")
	write("internal/stream/frame.go",
		"package stream\nvar routes = [NumRoutes]struct{ pattern, media string }{\n\tRouteListFeeds: {\"GET /feeds\", \"\"},\n}\n")
	write("cmd/grubd/main.go", "// Command grubd.\npackage main\n\nfunc main() {}\n")
	write("internal/lib/lib.go", "package lib\n")
	write("internal/lib/lib_test.go", "package main\n")
	write("examples/quickstart/main.go", "package main\n\nfunc main() {}\n")

	problems, err := run(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(problems, "\n")
	for _, want := range []string{"./cmd/tracegen", "./internal/lib", "./examples/gone"} {
		if !strings.Contains(joined, want) {
			t.Errorf("problems missing %q:\n%s", want, joined)
		}
	}
	for _, ok := range []string{"./cmd/grubd", "./examples/quickstart"} {
		if strings.Contains(joined, ok+" ") {
			t.Errorf("false positive for %s:\n%s", ok, joined)
		}
	}
	if len(problems) != 3 {
		t.Errorf("got %d problems, want 3:\n%s", len(problems), joined)
	}
}

// TestCatchesStaleRouteHeading pins the route guard's second direction: an
// API.md heading for a route the route table no longer holds is flagged, while
// headings of registered routes and headings that name no route are not.
func TestCatchesStaleRouteHeading(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"README.md": "",
		"docs/API.md": "# API\n\n### `GET /feeds` — list\n\n### `GET /feeds/{id}/legacy` — gone\n\n" +
			"### `grubtop` — a tool, not a route\n",
		"internal/stream/frame.go": "package stream\nvar routes = [NumRoutes]struct{ pattern, media string }{\n\tRouteListFeeds: {\"GET /feeds\", \"\"},\n}\n",
	})
	problems, err := run(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(problems, "\n")
	if len(problems) != 1 || !strings.Contains(joined, `route "GET /feeds/{id}/legacy", which the route table in internal/stream/frame.go does not hold`) {
		t.Errorf("got %d problems, want the stale GET /feeds/{id}/legacy heading only:\n%s", len(problems), joined)
	}
}

// TestNoRoutesFound pins that a route table source with no entry
// the guard can read fails the check instead of passing it vacuously.
func TestNoRoutesFound(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"README.md":                "",
		"docs/API.md":              "# API\n\n`GET /feeds`\n",
		"internal/stream/frame.go": "package stream\nfunc x() {\n\tmux.HandleFunc(\"GET /feeds\", nil)\n}\n",
	})
	if _, err := run(root, nil); err == nil || !strings.Contains(err.Error(), "no routes found") {
		t.Errorf("run = %v, want the no-routes-found failure", err)
	}
}

// TestCatchesStaleMetricRow pins the metrics lint's second direction: a
// first-column `grub_*` table cell that no source literal and no live
// family produces is flagged; a label suffix is ignored, a live-only
// family and a mention outside a table's first column are accepted.
func TestCatchesStaleMetricRow(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"README.md": "",
		"docs/API.md": "# API\n\n`GET /feeds`\n\n| Name | Meaning |\n|---|---|\n" +
			"| `grub_kept_total{feed=\"...\"}` | a literal |\n" +
			"| `grub_runtime_total` | built at run time |\n" +
			"| `grub_gone_total` | removed |\n" +
			"| meaning | `grub_prose_only` |\n",
		"internal/stream/frame.go":    "package stream\nvar routes = [NumRoutes]struct{ pattern, media string }{\n\tRouteListFeeds: {\"GET /feeds\", \"\"},\n}\n",
		"internal/server/metrics.go":  "package server\nconst a = \"grub_kept_total\"\n",
		"internal/server/old_test.go": "package server\nconst b = \"grub_gone_total\"\n",
	})
	problems, err := run(root, []string{"grub_runtime_total"})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(problems, "\n")
	if len(problems) != 1 || !strings.Contains(joined, `metric "grub_gone_total", which nothing produces`) {
		t.Errorf("got %d problems, want the stale grub_gone_total row only:\n%s", len(problems), joined)
	}
}

// writeTree writes files (path relative to root -> content) under root.
func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for rel, content := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSlugify pins the GitHub anchor rules the link check relies on.
func TestSlugify(t *testing.T) {
	for in, want := range map[string]string{
		"Persistence and recovery":             "persistence-and-recovery",
		"POST /feeds — create a feed":          "post-feeds--create-a-feed",
		"Data flow: one read, chain to client": "data-flow-one-read-chain-to-client",
	} {
		if got := slugify(in); got != want {
			t.Errorf("slugify(%q) = %q, want %q", in, got, want)
		}
	}
}
