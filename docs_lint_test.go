// Documentation lints: every Go package in the module must carry a
// package comment, every relative markdown link (including its heading
// anchor) must resolve, and nothing may name the measurement stack that
// benchmark/ replaced. All run as ordinary tests so CI's docs job fails
// the moment a package, a link or a description goes stale.
package nice_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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

// retiredBenchRE matches the names of the retired measurement stack: its
// command, its package and its BENCH_N baseline files. It is assembled
// from pieces so that this file passes its own lint.
var retiredBenchRE = regexp.MustCompile(`nice-` + `bench\b|internal/` + `bench\b|BENCH` + `_[0-9]`)

// TestNoRetiredBenchReferences: that stack outlived its replacement long
// enough for three documents to name three different baselines for one
// gate. Source, workflows, README, docs/ and the skill notes must not
// mention it again; CHANGES.md and ROADMAP.md are history, benchmark/ is
// frozen by BENCHMARK.json and .bench_build/ is its build output.
func TestNoRetiredBenchReferences(t *testing.T) {
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
			if m := retiredBenchRE.FindString(line); m != "" {
				t.Errorf("%s:%d: mentions %q; the measurement contract is benchmark/ (bash benchmark/run.sh)", path, i+1, m)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
