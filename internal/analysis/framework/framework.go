// Package framework is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer holds a name, a doc
// string and a Run function; a Pass hands the Run function one type-checked
// package and collects Diagnostics. It exists because this repository is
// standard-library-only, and the correctness properties ReDSOC depends on
// (unit discipline between picoseconds/cycles/ticks, deterministic
// simulation, conservative rounding, whole-program determinism) want machine
// checking, not code review.
//
// Beyond the per-package vocabulary, the framework carries a whole-program
// layer: a CFG builder and worklist dataflow solver (cfg.go, solver.go), a
// type-informed call graph with CHA interface resolution (callgraph.go), and
// a Facts-style summary store (facts.go). An analyzer that sets Summarize is
// run over every package in dependency order first, exporting per-function
// facts ("returns a nondeterministic value", "allocates"); its Run pass then
// consumes those facts at call sites, which is what lets detflow and
// hotpath reason through calls instead of around them.
//
// Deliberate deviations from x/tools:
//   - Facts are keyed by qualified name, not serialized per object, and
//     there is still no Requires graph — the two-phase Summarize/Run split
//     replaces it;
//   - suppression is built in: a diagnostic is dropped when the offending
//     line (or the line above it) carries a `//lint:allow <analyzer> <why>`
//     annotation, so audited-and-intentional sites stay visible in the code.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// annotations. It must be a single lowercase word.
	Name string
	// Doc is a one-paragraph description of what the analyzer reports.
	Doc string
	// Run performs the check on one package, reporting findings via
	// pass.Reportf. A non-nil error aborts the whole vet run (reserve it for
	// internal failures, not findings).
	Run func(*Pass) error
	// Summarize, when non-nil, runs over every package in dependency order
	// before any Run pass, recording per-object facts via pass.ExportFact.
	// It must not report diagnostics; it only builds the summary store that
	// Run passes consume through pass.ImportFact.
	Summarize func(*Pass) error
}

// Diagnostic is one finding, attributed to the analyzer that produced it.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Facts is the run-wide summary store, shared by every pass of the run.
	// Nil only when RunAnalyzers was handed no whole-program analyzers.
	Facts *FactStore
	// Graph is the whole-program call graph over every loaded package,
	// built once per run. Nil under the same condition as Facts.
	Graph *CallGraph

	allow allowIndex
	diags *[]Diagnostic
}

// Allowed reports whether a diagnostic from the named analyzer at pos would
// be suppressed by a //lint:allow annotation. Analyzers use it to honor
// *other* analyzers' audited sites — e.g. detflow treats a map range audited
// as order-independent for simdeterminism as a non-source.
func (p *Pass) Allowed(analyzer string, pos token.Pos) bool {
	return p.allow.allowed(analyzer, p.Fset.Position(pos))
}

// Reportf records a finding at pos unless the site carries a matching
// //lint:allow annotation.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allow.allowed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowRE matches `lint:allow name1,name2 optional reason`. The reason is
// not optional by policy — reviewers should reject annotations without one —
// but the matcher tolerates its absence so the missing reason can itself be
// flagged in review rather than silently changing suppression behavior.
var allowRE = regexp.MustCompile(`^lint:allow\s+([a-z][a-z0-9_,]*)\b`)

// AllowNames returns the analyzer names a `//lint:allow` comment suppresses,
// or nil when the comment is not a lint:allow annotation.
func AllowNames(comment string) []string {
	m := allowRE.FindStringSubmatch(strings.TrimSpace(strings.TrimPrefix(comment, "//")))
	if m == nil {
		return nil
	}
	return strings.Split(m[1], ",")
}

// allowIndex maps file → line → analyzer names suppressed on that line.
type allowIndex map[string]map[int][]string

// buildAllowIndex scans every comment in the files for lint:allow markers.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) allowIndex {
	idx := allowIndex{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names := AllowNames(c.Text)
				if names == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := idx[pos.Filename]
				if lines == nil {
					lines = map[int][]string{}
					idx[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], names...)
			}
		}
	}
	return idx
}

// allowed reports whether a diagnostic from the named analyzer at the given
// position is suppressed: the annotation may sit at the end of the offending
// line or on its own line directly above.
func (idx allowIndex) allowed(name string, pos token.Position) bool {
	lines := idx[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, n := range lines[line] {
			if n == name {
				return true
			}
		}
	}
	return false
}

// RunAnalyzers applies every analyzer to every package and returns the
// surviving diagnostics sorted by file position.
//
// Analyzers with a Summarize hook get a whole-program phase first: the
// packages are ordered so every package runs after the packages it imports,
// a call graph over the full corpus is built, and Summarize records facts
// into a shared store — so by the time any Run pass executes, every analyzed
// function's summary is available at its call sites.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs = dependencyOrder(pkgs)

	var facts *FactStore
	var graph *CallGraph
	for _, a := range analyzers {
		if a.Summarize != nil {
			facts = NewFactStore()
			graph = BuildCallGraph(pkgs)
			break
		}
	}

	var diags []Diagnostic
	newPass := func(a *Analyzer, pkg *Package, allow allowIndex) *Pass {
		return &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Facts:     facts,
			Graph:     graph,
			allow:     allow,
			diags:     &diags,
		}
	}

	if facts != nil {
		for _, pkg := range pkgs {
			allow := buildAllowIndex(pkg.Fset, pkg.Files)
			for _, a := range analyzers {
				if a.Summarize == nil {
					continue
				}
				if err := a.Summarize(newPass(a, pkg, allow)); err != nil {
					return nil, fmt.Errorf("%s summarizing %s: %w", a.Name, pkg.Path, err)
				}
			}
		}
	}

	for _, pkg := range pkgs {
		allow := buildAllowIndex(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			if err := a.Run(newPass(a, pkg, allow)); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// dependencyOrder returns the packages sorted so that every package follows
// the packages it imports (among those under analysis). Import cycles are
// impossible in Go, so a depth-first postorder suffices; ties keep the
// loader's order, which is itself deterministic.
func dependencyOrder(pkgs []*Package) []*Package {
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	var out []*Package
	visited := map[string]bool{}
	var visit func(p *Package)
	visit = func(p *Package) {
		if visited[p.Path] {
			return
		}
		visited[p.Path] = true
		if p.Types != nil {
			for _, imp := range p.Types.Imports() {
				if dep, ok := byPath[imp.Path()]; ok {
					visit(dep)
				}
			}
		}
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}
