// Documentation lints: every Go package in the module must carry a
// package comment, every relative markdown link (including its heading
// anchor) must resolve, every markdown file a source or document names
// must exist, the telemetry reference must list the trace kinds and
// every scope's series the code has, and nothing may name the measurement
// stack that benchmark/ replaced. All run as ordinary tests so CI's docs job fails
// the moment a package, a link or a description goes stale.
package nice_test

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/nice-go/nice"
	"github.com/nice-go/nice/internal/service"
	"github.com/nice-go/nice/internal/telemetry"
	"github.com/nice-go/nice/scenarios"
)

// lintSkipDirs are subtrees the package-doc lint does not descend
// into: example mains and the fixture consumer module are not part of
// the documented SDK surface.
var lintSkipDirs = map[string]bool{
	".git":     true,
	".github":  true,
	"docs":     true,
	"examples": true,
	"testdata": true,
}

// TestPackageDocs fails on any package — public SDK, cmd, or internal
// engine — that lacks a package comment.
func TestPackageDocs(t *testing.T) {
	var undocumented []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if lintSkipDirs[d.Name()] {
			return filepath.SkipDir
		}
		matches, err := filepath.Glob(filepath.Join(path, "*.go"))
		if err != nil {
			return err
		}
		documented, hasSource := false, false
		fset := token.NewFileSet()
		for _, m := range matches {
			if strings.HasSuffix(m, "_test.go") {
				continue
			}
			hasSource = true
			f, err := parser.ParseFile(fset, m, nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				return err
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if hasSource && !documented {
			undocumented = append(undocumented, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range undocumented {
		t.Errorf("package %s has no package comment (add a doc.go)", p)
	}
}

// retiredNames matches retired names, each with what replaced it: the
// measurement stack's command, package and BENCH_N baseline files, and
// the deep-clone and oracle-hash reference paths. The patterns are
// assembled from pieces so that this file passes its own lint.
var retiredNames = map[*regexp.Regexp]string{
	regexp.MustCompile(`nice-` + `bench\b|internal/` + `bench\b|BENCH` + `_[0-9]`): "benchmark/ (bash benchmark/run.sh)",
	regexp.MustCompile(`With` + `DeepClone\b`):                                     "copy-on-write Fork, held to reftest.Explore by TestCOWDeepCloneParity",
	regexp.MustCompile(`With` + `OracleHash\b`):                                    "System.OracleKey, which reftest.Explore names states by",
}

// TestNoRetiredNames: the measurement stack outlived its replacement
// long enough for three documents to name three different baselines for
// one gate. Source, workflows, README, docs/ and the skill notes must
// not mention a retired name again; CHANGES.md and ROADMAP.md are
// history, benchmark/ is frozen by BENCHMARK.json and .bench_build/ is
// its build output.
func TestNoRetiredNames(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if path == ".git" || path == "benchmark" || path == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		md := strings.HasSuffix(path, ".md") && (path == "README.md" ||
			strings.HasPrefix(path, "docs/") || strings.HasPrefix(path, ".claude/"))
		if !md && !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".yml") {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(body), "\n") {
			for re, replacement := range retiredNames {
				if m := re.FindString(line); m != "" {
					t.Errorf("%s:%d: mentions retired %q; use %s", path, i+1, m, replacement)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mdNameRE matches a markdown file name in running text: a path or a
// bare name ending in ".md".
var mdNameRE = regexp.MustCompile(`[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b`)

// TestMarkdownNamesExist: every markdown file that source, workflows,
// README.md, docs/ and the skill notes name must exist — resolved from
// the repository root, from the naming file's directory, or, for a bare
// name, as the base name of some file in the repository. A comment that
// sends its reader to a document nobody wrote is a dead end.
// CHANGES.md and ROADMAP.md are history and benchmark/ is frozen by
// BENCHMARK.json, as in TestNoRetiredNames.
func TestMarkdownNamesExist(t *testing.T) {
	type naming struct {
		path string
		line int
		name string
	}
	var names []naming
	bases := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if path == ".git" || path == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		bases[d.Name()] = true
		if strings.HasPrefix(path, "benchmark/") {
			return nil
		}
		md := strings.HasSuffix(path, ".md") && (path == "README.md" ||
			strings.HasPrefix(path, "docs/") || strings.HasPrefix(path, ".claude/"))
		if !md && !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".yml") {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(body), "\n") {
			for _, name := range mdNameRE.FindAllString(line, -1) {
				names = append(names, naming{path, i + 1, name})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(p string) bool { _, err := os.Stat(p); return err == nil }
	for _, n := range names {
		if exists(n.name) || exists(filepath.Join(filepath.Dir(n.path), n.name)) ||
			(!strings.Contains(n.name, "/") && bases[n.name]) {
			continue
		}
		t.Errorf("%s:%d: names %s, which is not in the repository", n.path, n.line, n.name)
	}
}

var mdLinkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestMarkdownLinks resolves every relative link in README.md,
// ROADMAP.md and docs/*.md: the target file must exist, and a heading
// anchor, when present, must match a heading in the target.
func TestMarkdownLinks(t *testing.T) {
	files := []string{"README.md", "ROADMAP.md", "CHANGES.md", "PAPER.md"}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, docs...)

	for _, f := range files {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, m := range mdLinkRE.FindAllStringSubmatch(string(body), -1) {
			link := m[1]
			if strings.Contains(link, "://") || strings.HasPrefix(link, "mailto:") {
				continue // external; not checked offline
			}
			target, anchor, _ := strings.Cut(link, "#")
			resolved := f
			if target != "" {
				resolved = filepath.Join(filepath.Dir(f), target)
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: broken link %q: %v", f, link, err)
					continue
				}
			}
			if anchor != "" && strings.HasSuffix(resolved, ".md") {
				if !mdHasAnchor(t, resolved, anchor) {
					t.Errorf("%s: link %q: no heading with anchor #%s in %s",
						f, link, anchor, resolved)
				}
			}
		}
	}
}

// TestRequestFieldsDocumented: every JobRequest field is a wire field
// docs/SERVICE.md explains and a `nice` flag (its JSON name with "-"
// for "_"), so a knob added to the request cannot reach one door and
// miss the others' documentation.
func TestRequestFieldsDocumented(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	// -help prints the usage to stderr and exits 0.
	help, err := exec.Command(goBin, "run", "./cmd/nice", "-help").CombinedOutput()
	if err != nil {
		t.Fatalf("nice -help: %v\n%s", err, help)
	}
	service, err := os.ReadFile("docs/SERVICE.md")
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(nice.JobRequest{})
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if !strings.Contains(string(service), "`"+name+"`") {
			t.Errorf("docs/SERVICE.md does not document request field %q", name)
		}
		if flag := "-" + strings.ReplaceAll(name, "_", "-"); !regexp.MustCompile(`(?m)^  ` + flag + `\b`).Match(help) {
			t.Errorf("nice -help lists no %s flag for request field %q", flag, name)
		}
	}
}

// TestTelemetryNamesDocumented: docs/METRICS.md's trace table lists
// exactly the telemetry.TraceKind constants, and each scope's table
// exactly the series the code registers in it — the engine table once
// per engine, then `cow`, `cache`, `sym`, `dpor`, `campaign` and
// `service` — so a kind or series added, renamed or retired in code
// cannot leave the reference behind.
func TestTelemetryNamesDocumented(t *testing.T) {
	data, err := os.ReadFile("docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)

	f, err := parser.ParseFile(token.NewFileSet(), "internal/telemetry/trace.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if typ, ok := vs.Type.(*ast.Ident); !ok || typ.Name != "TraceKind" {
				continue
			}
			for _, v := range vs.Values {
				kind, err := strconv.Unquote(v.(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				kinds = append(kinds, kind)
			}
		}
	}
	sameNames(t, "trace kinds", kinds, mdTableNames(doc, "## The trace ring"))

	reg := telemetry.New()
	s, err := service.New(service.Options{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	sameNames(t, "service series", seriesByScope(reg)["service"], mdTableNames(doc, "## Scope `service`"))

	// Every other scope, on one registry: bug-ii under each engine, under
	// DPOR on both exhaustive engines, and as a one-job Campaign.
	reg = nice.NewTelemetry()
	ctx := context.Background()
	bug := func() *nice.Config { return scenarios.MustLookup("bug-ii").Config(0) }
	for _, e := range nice.EngineSpecs() {
		nice.Run(ctx, bug(), nice.WithEngine(e.New()), nice.WithTelemetry(reg))
	}
	for _, workers := range []int{1, 2} {
		nice.Run(ctx, bug(), nice.WithWorkers(workers), nice.WithReduction(nice.DPOR), nice.WithTelemetry(reg))
	}
	(&nice.Campaign{Jobs: []nice.CampaignJob{{Scenario: "bug-ii"}}, Telemetry: reg}).Run(ctx, nice.WithTelemetry(reg))
	scopes := seriesByScope(reg)
	engine := mdTableNames(doc, "## Engine scopes")
	for _, e := range nice.EngineSpecs() {
		sameNames(t, e.Name+" series", scopes[e.Name], engine)
		delete(scopes, e.Name)
	}
	for _, scope := range []string{"cow", "cache", "sym", "dpor", "campaign"} {
		sameNames(t, scope+" series", scopes[scope], mdTableNames(doc, "## Scope `"+scope+"`"))
		delete(scopes, scope)
	}
	for scope := range scopes {
		t.Errorf("scope %q has no table in docs/METRICS.md", scope)
	}
}

// seriesByScope lists a registry's series names by scope, the scope
// prefix cut off; campaign outcome counters read as the documented
// `outcome_<class>`.
func seriesByScope(reg *telemetry.Registry) map[string][]string {
	snap := reg.Snapshot()
	var names []string
	for _, series := range []map[string]int64{snap.Counters, snap.Gauges} {
		for name := range series {
			names = append(names, name)
		}
	}
	for name := range snap.Histograms {
		names = append(names, name)
	}
	scopes := make(map[string][]string)
	for _, name := range names {
		scope, series, _ := strings.Cut(name, ".")
		if scope == "campaign" && strings.HasPrefix(series, "outcome_") {
			series = "outcome_<class>"
		}
		if !slices.Contains(scopes[scope], series) {
			scopes[scope] = append(scopes[scope], series)
		}
	}
	return scopes
}

var backquotedRE = regexp.MustCompile("`([^`]+)`")

// mdTableNames collects the backquoted names in the first column of the
// first table under heading.
func mdTableNames(doc, heading string) []string {
	_, section, _ := strings.Cut(doc, "\n"+heading)
	var names []string
	inTable := false
	for _, line := range strings.Split(section, "\n")[1:] {
		if strings.HasPrefix(line, "#") {
			break
		}
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cell := strings.Split(line, "|")[1]
		for _, m := range backquotedRE.FindAllStringSubmatch(cell, -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// sameNames reports the names code has and the document lacks, and the
// other way round.
func sameNames(t *testing.T, what string, code, doc []string) {
	t.Helper()
	slices.Sort(code)
	slices.Sort(doc)
	if !slices.Equal(code, doc) {
		t.Errorf("%s: code has %v, docs/METRICS.md lists %v", what, code, doc)
	}
}

// mdHasAnchor reports whether the markdown file has a heading whose
// GitHub-style slug equals anchor.
func mdHasAnchor(t *testing.T, file, anchor string) bool {
	t.Helper()
	body, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		if headingSlug(strings.TrimLeft(line, "# ")) == anchor {
			return true
		}
	}
	return false
}

// headingSlug is GitHub's heading-to-anchor rule: lowercase, drop
// everything but letters/digits/spaces/hyphens, spaces to hyphens.
func headingSlug(h string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(strings.TrimSpace(h)) {
		switch {
		case r == ' ':
			b.WriteRune('-')
		case r == '-' || r == '_' ||
			('a' <= r && r <= 'z') || ('0' <= r && r <= '9') || r > 127:
			b.WriteRune(r)
		}
	}
	return b.String()
}
