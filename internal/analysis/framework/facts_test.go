package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// checkCorpus type-checks a synthetic multi-package corpus given as
// name→source, resolving imports between corpus packages, and returns the
// packages in the given order.
func checkCorpus(t *testing.T, order []string, srcs map[string]string) []*Package {
	t.Helper()
	fset := token.NewFileSet()
	checked := map[string]*Package{}
	var load func(name string) *Package
	imp := importerFunc(func(path string) (*types.Package, error) {
		return load(path).Types, nil
	})
	load = func(name string) *Package {
		if p, ok := checked[name]; ok {
			return p
		}
		f, err := parser.ParseFile(fset, name+".go", srcs[name], parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		info := NewTypesInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(name, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", name, err)
		}
		p := &Package{Path: name, Fset: fset, Files: []*ast.File{f}, Types: tpkg, TypesInfo: info}
		checked[name] = p
		return p
	}
	var pkgs []*Package
	for _, name := range order {
		pkgs = append(pkgs, load(name))
	}
	return pkgs
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// corpus is a 3-package chain: leaf declares a nondeterministic source,
// mid wraps it behind two hops, top writes the wrapped value into a field.
var corpus = map[string]string{
	"leaf": `package leaf
func Nondet() int { return 42 }
func Det() int { return 1 }`,
	"mid": `package mid
import "leaf"
func Wrap() int { return hop() }
func hop() int { return leaf.Nondet() }
func Clean() int { return leaf.Det() }`,
	"top": `package top
import "mid"
type R struct{ V int }
func Fill(r *R) { r.V = mid.Wrap() }
func FillClean(r *R) { r.V = mid.Clean() }`,
}

// nondetFact marks a function whose return derives from leaf.Nondet.
type nondetFact struct{}

// newPropagator builds an analyzer that exports a nondetFact for every
// function that calls leaf.Nondet or any already-summarized function, and
// reports call sites of summarized functions during Run.
func newPropagator() *Analyzer {
	a := &Analyzer{
		Name: "propagate",
		Doc:  "test analyzer: propagates a 'derives from leaf.Nondet' fact across packages",
	}
	summarizeOne := func(pass *Pass, fd *ast.FuncDecl) bool {
		found := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := CalleeFunc(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			if FactKey(fn) == "leaf.Nondet" {
				found = true
			}
			if _, ok := pass.ImportFact(fn); ok {
				found = true
			}
			return true
		})
		return found
	}
	a.Summarize = func(pass *Pass) error {
		// Iterate to a local fixpoint so in-package call order cannot matter.
		for changed := true; changed; {
			changed = false
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					obj := pass.TypesInfo.Defs[fd.Name]
					if _, done := pass.ImportFact(obj); done {
						continue
					}
					if summarizeOne(pass, fd) {
						pass.ExportFact(obj, nondetFact{})
						changed = true
					}
				}
			}
		}
		return nil
	}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := CalleeFunc(pass.TypesInfo, call); fn != nil {
					if _, ok := pass.ImportFact(fn); ok {
						pass.Reportf(call.Pos(), "call to nondet-derived %s", fn.Name())
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}

// TestFactRoundTripAcrossPackages drives the two-phase Summarize/Run
// pipeline over the 3-package corpus and checks that the fact exported on
// leaf's caller in mid is visible in top — two package boundaries and two
// call hops away from the source.
func TestFactRoundTripAcrossPackages(t *testing.T) {
	// Deliberately hand the packages over in reverse dependency order:
	// RunAnalyzers must reorder them so mid is summarized before top runs.
	pkgs := checkCorpus(t, []string{"top", "mid", "leaf"}, corpus)
	diags, err := RunAnalyzers(pkgs, []*Analyzer{newPropagator()})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Pos.Filename+": "+d.Message)
	}
	// Facts mark *callers* of the source: hop (calls leaf.Nondet), then
	// Wrap (calls hop), then top's Fill (calls mid.Wrap). The reportable
	// call sites are the ones whose callee carries the fact.
	want := map[string]bool{
		"mid.go: call to nondet-derived hop":  true, // Wrap -> hop (in-package hop)
		"top.go: call to nondet-derived Wrap": true, // Fill -> mid.Wrap (cross-package)
	}
	for _, g := range got {
		if !want[g] {
			t.Errorf("unexpected diagnostic %q", g)
		}
		delete(want, g)
	}
	for w := range want { //lint:allow simdeterminism order-independent: error reporting
		t.Errorf("missing diagnostic %q", w)
	}
}

// TestFactKeyStability pins the key shape the cross-package bridge depends
// on: identical for a function seen from its own package and from an
// importer's view.
func TestFactKeyStability(t *testing.T) {
	pkgs := checkCorpus(t, []string{"leaf", "mid"}, corpus)
	leafPkg, midPkg := pkgs[0], pkgs[1]

	fromHome := leafPkg.Types.Scope().Lookup("Nondet")
	if got := FactKey(fromHome); got != "leaf.Nondet" {
		t.Errorf("FactKey from home package = %q, want leaf.Nondet", got)
	}
	// The same function resolved through mid's Uses map.
	var fromImporter types.Object
	ast.Inspect(midPkg.Files[0], func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if fn, ok := midPkg.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Name() == "Nondet" {
				fromImporter = fn
			}
		}
		return true
	})
	if fromImporter == nil {
		t.Fatal("leaf.Nondet use not found in mid")
	}
	if FactKey(fromHome) != FactKey(fromImporter) {
		t.Errorf("FactKey differs across the package boundary: %q vs %q", FactKey(fromHome), FactKey(fromImporter))
	}
}

// TestTrimPath pins the report-message shortening of keys and positions.
func TestTrimPath(t *testing.T) {
	for _, tc := range []struct {
		in   string
		n    int
		want string
	}{
		{"redsoc/internal/obs.WriteJSON", 1, "obs.WriteJSON"},
		{"(*redsoc/internal/ooo.Simulator).wake", 1, "(*ooo.Simulator).wake"},
		{"(*hot.sim).collect", 1, "(*hot.sim).collect"},
		{"/src/internal/ooo/sim.go:412:3", 2, "ooo/sim.go:412:3"},
		{"pool/pool.go:14:9", 2, "pool/pool.go:14:9"},
	} {
		if got := TrimPath(tc.in, tc.n); got != tc.want {
			t.Errorf("TrimPath(%q, %d) = %q, want %q", tc.in, tc.n, got, tc.want)
		}
	}
}

// TestCallGraphCHA checks interface dispatch resolution: a call through an
// interface method yields one edge per implementing type in the corpus.
func TestCallGraphCHA(t *testing.T) {
	pkgs := checkCorpus(t, []string{"iface"}, map[string]string{
		"iface": `package iface
type Sink interface{ Emit(int) }
type A struct{}
func (A) Emit(int) {}
type B struct{}
func (*B) Emit(int) {}
func Drive(s Sink) { s.Emit(1) }`,
	})
	g := BuildCallGraph(pkgs)
	edges := g.Callees["iface.Drive"]
	var callees []string
	for _, e := range edges {
		if e.Interface {
			callees = append(callees, e.Callee)
		}
	}
	joined := strings.Join(callees, " ")
	if !strings.Contains(joined, "(iface.A).Emit") {
		t.Errorf("CHA missed value-receiver implementation: %v", callees)
	}
	if !strings.Contains(joined, "(*iface.B).Emit") {
		t.Errorf("CHA missed pointer-receiver implementation: %v", callees)
	}
}

// TestDependencyOrder pins the topological guarantee Summarize relies on.
func TestDependencyOrder(t *testing.T) {
	pkgs := checkCorpus(t, []string{"top", "leaf", "mid"}, corpus)
	ordered := dependencyOrder(pkgs)
	pos := map[string]int{}
	for i, p := range ordered {
		pos[p.Path] = i
	}
	if !(pos["leaf"] < pos["mid"] && pos["mid"] < pos["top"]) {
		var got []string
		for _, p := range ordered {
			got = append(got, p.Path)
		}
		t.Errorf("dependency order %v, want leaf before mid before top", got)
	}
}
