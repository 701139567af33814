// Package analysistest runs an analyzer over GOPATH-style testdata packages
// and checks its diagnostics against `// want "regex"` comments, mirroring
// golang.org/x/tools/go/analysis/analysistest for this repository's
// dependency-free analysis framework.
//
// Layout: <analyzer pkg>/testdata/src/<pkg>/*.go. The corpus is loaded by
// framework.Load in GOPATH mode (GOPATH=<analyzer pkg>/testdata,
// GO111MODULE=off) — the loader redsoc-vet itself uses — so a testdata
// package imports another by bare name (e.g. a miniature "timing"
// stand-in), every import resolves through compiler export data, and each
// analyzer is tested under the regime it ships in.
package analysistest

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"redsoc/internal/analysis/framework"
)

// Run loads every package of the calling test's testdata corpus, applies
// the analyzer once over all of them (so whole-program analyzers see across
// package boundaries exactly as redsoc-vet does), and reports any mismatch
// between produced diagnostics and the corpus's `// want` expectations.
func Run(t *testing.T, a *framework.Analyzer) {
	t.Helper()
	gopath, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("GOPATH", gopath)
	t.Setenv("GO111MODULE", "off")
	t.Setenv("GOFLAGS", "")
	pkgs, err := framework.Load(filepath.Join(gopath, "src"), "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := framework.RunAnalyzers(pkgs, []*framework.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
	}
	for _, d := range diags {
		if !hit(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// want is one expectation: a diagnostic matching re at file:line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.+)$`)

func collectWants(t *testing.T, pkg *framework.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				pat, err := strconv.Unquote(strings.TrimSpace(m[1]))
				if err != nil {
					t.Fatalf("%s: malformed want comment %q: %v", pos, c.Text, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
				}
				wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}

// hit marks and reports the first unmatched want that d satisfies.
func hit(wants []*want, d framework.Diagnostic) bool {
	for _, w := range wants {
		if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.hit = true
			return true
		}
	}
	return false
}
