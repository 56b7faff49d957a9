// Command docscheck is the CI docs gate. It makes five guarantees:
//
//  1. Link check: every relative markdown link in README.md and docs/*.md
//     points at a file that exists (and, for #fragment links, at a heading
//     that exists, using GitHub's anchor slugging).
//  2. Route guard, both ways: every route of the gateway's route table
//     (internal/stream/frame.go, which the gateway's mux registers) is
//     documented — docs/API.md must mention each route string verbatim —
//     and every API.md heading of the form ### `METHOD /path` names a route
//     the table still holds.
//  3. Metrics lint, both ways: every metric name (a "grub_..." string
//     literal in non-test Go source under internal/ and cmd/) is
//     documented — a newly registered metric must land in docs/API.md
//     before it ships — and every `grub_*` first-column cell of an API.md
//     table names a metric that a source literal or the live scrape (4)
//     produces.
//  4. Live exposition lint: an in-process gateway is booted, driven, and
//     scraped; its /metrics output must parse cleanly under the strict
//     obs exposition parser (well-formed HELP/TYPE headers, no duplicate
//     series, histogram suffixes resolving) and every grub_* family that
//     actually renders must be documented in docs/API.md — names built at
//     runtime can't slip past the string-literal scan.
//  5. Command check: every `go run ./<path>` quoted in README.md, docs/*.md
//     or .claude/skills/verify/SKILL.md names a directory of this repo that
//     holds a main package (a `<a|b>` placeholder checks each alternative),
//     so a deleted command cannot linger in the docs.
//
// It prints each problem and exits non-zero if any were found. Run it from
// the repository root (CI does), or pass the root as the only argument.
package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"

	"grub/internal/obs"
	"grub/internal/server"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	live, problems, err := checkLiveExposition(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}
	static, err := run(root, live)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}
	problems = append(static, problems...)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "docscheck:", p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: docs are consistent")
}

// run performs the static checks and returns the list of problems. live
// lists the metric families the live scrape served (nil when it did not
// run); a documented metric only they produce is not stale.
func run(root string, live []string) ([]string, error) {
	docs, err := docFiles(root)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, doc := range docs {
		ps, err := checkLinks(root, doc)
		if err != nil {
			return nil, err
		}
		problems = append(problems, ps...)
	}
	ps, err := checkGoRun(root, docs)
	if err != nil {
		return nil, err
	}
	problems = append(problems, ps...)
	ps, err = checkRoutes(root)
	if err != nil {
		return nil, err
	}
	problems = append(problems, ps...)
	ps, err = checkMetrics(root, live)
	if err != nil {
		return nil, err
	}
	problems = append(problems, ps...)
	return problems, nil
}

// docFiles lists the markdown files under the docs gate: README.md plus
// everything in docs/.
func docFiles(root string) ([]string, error) {
	files := []string{filepath.Join(root, "README.md")}
	entries, err := os.ReadDir(filepath.Join(root, "docs"))
	if err != nil {
		return nil, fmt.Errorf("docs/ directory: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join(root, "docs", e.Name()))
		}
	}
	sort.Strings(files)
	return files, nil
}

// linkRe matches inline markdown links [text](target). Images and
// reference-style links are out of scope for this repo's docs.
var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// checkLinks verifies every relative link in one markdown file.
func checkLinks(root, path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rel, _ := filepath.Rel(root, path)
	var problems []string
	for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
		target := m[1]
		if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
			strings.HasPrefix(target, "mailto:") {
			continue // external links are not checked offline
		}
		file, frag, _ := strings.Cut(target, "#")
		dest := path
		if file != "" {
			dest = filepath.Join(filepath.Dir(path), file)
			if _, err := os.Stat(dest); err != nil {
				problems = append(problems, fmt.Sprintf("%s: broken link %q: %s does not exist", rel, target, file))
				continue
			}
		}
		if frag != "" && strings.HasSuffix(dest, ".md") {
			ok, err := hasAnchor(dest, frag)
			if err != nil {
				return nil, err
			}
			if !ok {
				problems = append(problems, fmt.Sprintf("%s: broken link %q: no heading for #%s", rel, target, frag))
			}
		}
	}
	return problems, nil
}

// hasAnchor reports whether the markdown file has a heading whose GitHub
// anchor slug equals frag.
func hasAnchor(path, frag string) (bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		heading := strings.TrimSpace(strings.TrimLeft(line, "#"))
		if slugify(heading) == frag {
			return true, nil
		}
	}
	return false, nil
}

// slugify approximates GitHub's heading-anchor rules: lowercase, drop
// everything but letters, digits, spaces and hyphens, spaces to hyphens.
func slugify(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteRune('-')
		}
	}
	return b.String()
}

// goRunRe matches a quoted command, e.g. "go run ./cmd/grubd" or
// "go run ./examples/<quickstart|btcrelay>"; group 1 is the path.
var goRunRe = regexp.MustCompile(`go run \./([\w./-]*(?:<[^>\s]+>)?)`)

// mainPkgRe matches a main package clause.
var mainPkgRe = regexp.MustCompile(`(?m)^package main\b`)

// checkGoRun asserts every `go run ./<path>` in the docs and in the verify
// skill names a directory holding a main package.
func checkGoRun(root string, docs []string) ([]string, error) {
	skill := filepath.Join(root, ".claude", "skills", "verify", "SKILL.md")
	if _, err := os.Stat(skill); err == nil {
		docs = append(docs, skill)
	}
	var problems []string
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			return nil, err
		}
		rel, _ := filepath.Rel(root, doc)
		for _, m := range goRunRe.FindAllStringSubmatch(string(data), -1) {
			paths := []string{m[1]}
			if prefix, alts, ok := strings.Cut(m[1], "<"); ok {
				paths = paths[:0]
				for _, alt := range strings.Split(strings.TrimSuffix(alts, ">"), "|") {
					paths = append(paths, prefix+alt)
				}
			}
			for _, p := range paths {
				p = strings.TrimRight(p, "./")
				ok, err := isMainDir(filepath.Join(root, p))
				if err != nil {
					return nil, err
				}
				if !ok {
					problems = append(problems, fmt.Sprintf("%s: %q: ./%s is not a main package in this repo", rel, m[0], p))
				}
			}
		}
	}
	return problems, nil
}

// isMainDir reports whether dir exists and holds a non-test Go file of
// package main.
func isMainDir(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, nil // missing or not a directory
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return false, err
		}
		if mainPkgRe.Match(src) {
			return true, nil
		}
	}
	return false, nil
}

// checkLiveExposition is the live half of the metrics lint (run() holds
// the static half; main() runs both, while the temp-root unit tests
// exercise run() alone since a synthetic tree has no gateway to boot).
// It starts an in-process gateway, drives traced batches through a
// sharded feed, scrapes GET /metrics, and validates the result: the
// exposition must parse under the strict obs parser, and every grub_*
// family it serves must be documented in docs/API.md. It returns the
// grub_* families served, for run's stale-row check.
func checkLiveExposition(root string) (live, problems []string, err error) {
	g := server.NewGateway()
	defer g.Close()
	if err := g.CreateFeed(server.FeedConfig{ID: "docscheck", Shards: 2}); err != nil {
		return nil, nil, fmt.Errorf("live exposition: create feed: %w", err)
	}
	// SlowOp at 1ns traces every batch and exercises the slow-op logger
	// (and its drop counter) alongside the pipeline histograms.
	h := server.NewHandlerConfig(g, server.HandlerConfig{
		SlowOp: time.Nanosecond, SlowOpWriter: discard{},
	})
	for i := 0; i < 32; i++ {
		body := strings.NewReader(fmt.Sprintf(
			`{"ops":[{"type":"write","key":"k%d","value":"dg=="},{"type":"read","key":"k%d"}]}`, i, i))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/feeds/docscheck/ops", body))
		if rec.Code != 200 {
			return nil, nil, fmt.Errorf("live exposition: drive batch: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		return nil, nil, fmt.Errorf("live exposition: scrape: status %d", rec.Code)
	}
	fams, err := obs.ParseExposition(rec.Body.String())
	if err != nil {
		return nil, []string{fmt.Sprintf("live /metrics exposition is malformed: %v", err)}, nil
	}
	api, err := os.ReadFile(filepath.Join(root, "docs", "API.md"))
	if err != nil {
		return nil, nil, fmt.Errorf("read docs/API.md: %w", err)
	}
	apiText := string(api)
	for _, f := range fams {
		if !strings.HasPrefix(f.Name, "grub_") {
			continue
		}
		live = append(live, f.Name)
		if !strings.Contains(apiText, f.Name) {
			problems = append(problems,
				fmt.Sprintf("docs/API.md: live metric family %q is served but not documented", f.Name))
		}
	}
	return live, problems, nil
}

// discard swallows the slow-op lines the live lint provokes.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// routeTable is the source file that holds the gateway's route table.
var routeTable = filepath.Join("internal", "stream", "frame.go")

// routeRe matches the pattern of an entry of the gateway's route table, from
// which every route registers on the mux, e.g.
// RouteOps: {"POST /feeds/{id}/ops", OpsMediaType},
var routeRe = regexp.MustCompile(`(?m)^\s*Route\w+:\s*\{"([A-Z]+ /[^"]*)",`)

// routeHeadingRe matches an API.md route heading, e.g.
// ### `POST /feeds/{id}/ops` — execute a batch.
var routeHeadingRe = regexp.MustCompile("(?m)^### `([A-Z]+ /[^`]*)`")

// checkRoutes asserts docs/API.md mentions every route of the route table,
// and that every route heading in it names a route the table holds.
func checkRoutes(root string) ([]string, error) {
	src, err := os.ReadFile(filepath.Join(root, routeTable))
	if err != nil {
		return nil, fmt.Errorf("read route table: %w", err)
	}
	matches := routeRe.FindAllStringSubmatch(string(src), -1)
	if len(matches) == 0 {
		return nil, fmt.Errorf("no routes found in %s — route regexp out of date?", routeTable)
	}
	api, err := os.ReadFile(filepath.Join(root, "docs", "API.md"))
	if err != nil {
		return nil, fmt.Errorf("read docs/API.md: %w", err)
	}
	apiText := string(api)
	var problems []string
	registered := make(map[string]bool, len(matches))
	for _, m := range matches {
		route := m[1]
		registered[route] = true
		if !strings.Contains(apiText, route) {
			problems = append(problems, fmt.Sprintf("docs/API.md: route %q is registered but not documented", route))
		}
	}
	for _, m := range routeHeadingRe.FindAllStringSubmatch(apiText, -1) {
		if !registered[m[1]] {
			problems = append(problems, fmt.Sprintf("docs/API.md: heading documents route %q, which the route table in %s does not hold", m[1], routeTable))
		}
	}
	return problems, nil
}

// metricRe matches metric-name string literals, e.g. "grub_feed_ops_total".
var metricRe = regexp.MustCompile(`"(grub_[a-z][a-z0-9_]*)"`)

// metricRowRe matches the first cell of an API.md metrics table row, e.g.
// | `grub_cluster_role{feed="..."}` | ..., capturing the bare name.
var metricRowRe = regexp.MustCompile("(?m)^\\| `(grub_[a-z0-9_]*)")

// checkMetrics asserts docs/API.md mentions every metric name that appears
// as a string literal in non-test Go source under internal/ and cmd/, and
// that every metric named in the first column of an API.md table is one
// such literal or one of the live families. Histogram families expand to
// _bucket/_sum/_count series at exposition time; documenting the family
// name satisfies the check.
func checkMetrics(root string, live []string) ([]string, error) {
	names := map[string]bool{}
	for _, dir := range []string{"internal", "cmd"} {
		base := filepath.Join(root, dir)
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range metricRe.FindAllStringSubmatch(string(src), -1) {
				names[m[1]] = true
			}
			return nil
		})
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
	}
	api, err := os.ReadFile(filepath.Join(root, "docs", "API.md"))
	if err != nil {
		return nil, fmt.Errorf("read docs/API.md: %w", err)
	}
	apiText := string(api)
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	var problems []string
	for _, name := range sorted {
		if !strings.Contains(apiText, name) {
			problems = append(problems, fmt.Sprintf("docs/API.md: metric %q is registered but not documented", name))
		}
	}
	for _, name := range live {
		names[name] = true
	}
	for _, m := range metricRowRe.FindAllStringSubmatch(apiText, -1) {
		if !names[m[1]] {
			problems = append(problems, fmt.Sprintf("docs/API.md: table row documents metric %q, which nothing produces", m[1]))
		}
	}
	return problems, nil
}
