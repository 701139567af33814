// Package hotpath guards the scheduler's zero-allocation steady state.
// The hot loop — wakeup, select, execute, commit — promises that a warm
// simulator allocates nothing per cycle (testing.AllocsPerRun == 0 over the
// issue window), which is what lets a parameter-sweep campaign run thousands
// of configurations without the garbage collector dominating wall time. The
// property is easy to lose one innocuous line at a time: a sort.Slice closure
// here, a string-keyed map update there, an append to a fresh slice in a
// replay path, or a call into a helper that does any of those.
//
// Any function marked with a `//redsoc:hotpath` directive in its doc comment
// is checked twice:
//
//   - its own body is scanned for constructs that allocate on every
//     invocation (Scan);
//   - its call edges are followed through the whole-program call graph, and
//     the first edge whose transitive closure reaches an allocating function
//     is reported with the full chain, so the finding is actionable without
//     re-deriving the path.
//
// Mechanically the second check is the framework's two-phase pipeline:
// Summarize runs Scan over every function in dependency order and exports
// an "allocates in its own body" fact; Run walks from each marked root.
// Walks prune at other marked functions (each is its own root, so a shared
// subpath is reported once, where it starts), and unanalyzed callees — the
// standard library, export-data-only packages — are treated as
// allocation-free: the lexical rules already ban the allocating stdlib entry
// points from marked bodies, and everything this contract guards is in-repo
// and therefore summarized.
//
// Audited exceptions (the entry arena's grow path, amortized scratch growth)
// stay visible in the source under `//lint:allow hotpath <why>` annotations.
// An audited site is excluded from the summaries too, so it does not
// re-surface as a transitive finding in every marked caller.
package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"redsoc/internal/analysis/framework"
)

// Analyzer enforces the scheduler's zero-allocation steady-state contract.
var Analyzer = &framework.Analyzer{
	Name: "hotpath",
	Doc: "in functions marked //redsoc:hotpath: flags constructs that allocate on every " +
		"invocation — make/new, slice and map literals, &composite literals, string " +
		"concatenation or conversion, fmt and sort calls, function literals passed to calls, " +
		"interface conversions that box their operand (explicit any(x) or implicit at a call " +
		"argument), append to a struct field (grows the backing array: reslice with buf[:0] " +
		"or audit the amortized growth), and append to anything but a named reusable buffer — " +
		"and call edges that reach an allocating function through any chain of calls (direct, " +
		"method, or interface-dispatched), reported with the full path — so the scheduler's " +
		"warm-window AllocsPerRun stays zero",
	Summarize: summarize,
	Run:       run,
}

// marker is the directive that opts a function into the rule. It must appear
// as its own line in the function's doc comment (directive comments attach to
// the doc group but are excluded from godoc text).
const marker = "redsoc:hotpath"

// Marked reports whether the declaration carries the //redsoc:hotpath
// directive.
func Marked(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == marker {
			return true
		}
	}
	return false
}

// allocFact marks a function that allocates in its own body.
type allocFact struct {
	// Where locates and describes the first unaudited allocation site,
	// "file:line: message", for the transitive report.
	Where string
}

func summarize(pass *framework.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			for _, site := range Scan(pass.TypesInfo, fd.Body) {
				if pass.Allowed(pass.Analyzer.Name, site.Pos) {
					continue
				}
				pos := framework.TrimPath(pass.Fset.Position(site.Pos).String(), 2)
				pass.ExportFact(obj, allocFact{Where: pos + ": " + site.Message})
				break // one site per function suffices for the summary
			}
		}
	}
	return nil
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !Marked(fd) {
				continue
			}
			for _, site := range Scan(pass.TypesInfo, fd.Body) {
				pass.Reportf(site.Pos, "hot-path function %s", site.Message)
			}
			if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
				checkRoot(pass, framework.FactKey(obj))
			}
		}
	}
	return nil
}

// checkRoot reports each call edge of root whose transitive closure reaches
// an allocating function. Each immediate callee is reported at most once per
// root, with one sample chain.
func checkRoot(pass *framework.Pass, root string) {
	reportedCallee := map[string]bool{}
	for _, edge := range pass.Graph.Callees[root] {
		if reportedCallee[edge.Callee] {
			continue
		}
		visited := map[string]bool{root: true}
		chain := allocChain(pass, edge.Callee, visited)
		if chain == nil {
			continue
		}
		reportedCallee[edge.Callee] = true
		fact, _ := pass.ImportFactKey(chain[len(chain)-1])
		where := fact.(allocFact).Where
		for i, key := range chain {
			chain[i] = framework.TrimPath(key, 1)
		}
		pass.Reportf(edge.Pos,
			"hot-path function reaches an allocation through %s (%s); make the chain allocation-free, hoist the call off the hot path, or audit it with lint:allow",
			strings.Join(chain, " -> "), where)
	}
}

// allocChain returns a call chain from key to an allocating function (key
// first), or nil when the closure is allocation-free. Marked callees prune
// the walk: they are audited as their own roots.
func allocChain(pass *framework.Pass, key string, visited map[string]bool) []string {
	if visited[key] {
		return nil
	}
	visited[key] = true
	decl, analyzed := pass.Graph.Decls[key]
	if analyzed && Marked(decl.Decl) {
		return nil
	}
	if _, ok := pass.ImportFactKey(key); ok {
		return []string{key}
	}
	if !analyzed {
		// Export-data-only callee: no source, no summary. The lexical rules
		// ban the known-allocating stdlib entry points from marked bodies.
		return nil
	}
	for _, edge := range pass.Graph.Callees[key] {
		if chain := allocChain(pass, edge.Callee, visited); chain != nil {
			return append([]string{key}, chain...)
		}
	}
	return nil
}

// Site is one allocating construct found by Scan. Message is a predicate
// ("calls make, which allocates; ...") that the caller prefixes with its
// subject — "hot-path function" here, "obs emission argument" in
// obszeroalloc.
type Site struct {
	Pos     token.Pos
	Message string
}

// Scan walks one syntax subtree — a function body, or a single expression —
// and returns every construct that allocates on each evaluation. It is pure
// analysis: suppression and attribution are the caller's job, so the
// lexical check, the call-graph summaries and obszeroalloc's emission
// arguments share one definition of "allocates".
func Scan(info *types.Info, body ast.Node) []Site {
	s := &scanner{info: info, escaping: map[*ast.FuncLit]bool{}}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				s.add(n.Pos(), "allocates a slice literal; hoist it out of the steady state")
			case *types.Map:
				s.add(n.Pos(), "allocates a map literal; hoist it out of the steady state")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := n.X.(*ast.CompositeLit); isLit {
					s.add(n.Pos(), "heap-allocates (&composite literal); recycle through the entry arena or a reusable scratch value")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && s.isString(n.X) {
				s.add(n.Pos(), "concatenates strings, which allocates; accumulate numeric state and format at capture time")
			}
		case *ast.FuncLit:
			if s.escaping[n] {
				s.add(n.Pos(), "passes a function literal to a call, which allocates its closure; hoist it to a named function")
			}
		case *ast.CallExpr:
			if skipArgs := s.call(n); skipArgs {
				return false
			}
		}
		return true
	})
	return s.sites
}

type scanner struct {
	info  *types.Info
	sites []Site
	// escaping marks function literals appearing as call arguments: those are
	// passed out of the frame and allocate their closure. A literal assigned
	// to a local and invoked in place stays on the stack and is not flagged.
	escaping map[*ast.FuncLit]bool
}

func (s *scanner) add(pos token.Pos, format string, args ...any) {
	s.sites = append(s.sites, Site{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// call applies the call-site rules and returns whether the arguments should
// be skipped (a flagged fmt or sort call's arguments need no second report).
func (s *scanner) call(call *ast.CallExpr) (skipArgs bool) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := s.info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			// A panic aborts the run, so building its message — Sprintf,
			// concatenation, boxing — is never a steady-state cost.
			return true
		}
	}
	for _, arg := range call.Args {
		if fl, ok := arg.(*ast.FuncLit); ok {
			s.escaping[fl] = true
		}
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make", "new":
			if _, isBuiltin := s.info.Uses[fun].(*types.Builtin); isBuiltin {
				s.add(call.Pos(), "calls %s, which allocates; reuse a per-Simulator scratch buffer", fun.Name)
				return false
			}
		case "append":
			if _, isBuiltin := s.info.Uses[fun].(*types.Builtin); isBuiltin && len(call.Args) > 0 {
				s.checkAppendDst(call)
				return false
			}
		case "string":
			if _, isType := s.info.Uses[fun].(*types.TypeName); isType {
				s.add(call.Pos(), "converts to string, which allocates; accumulate numeric state and format at capture time")
				return false
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := s.info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "fmt":
				s.add(call.Pos(), "calls fmt.%s, which allocates; format at capture time", fn.Name())
				return true
			case "sort":
				s.add(call.Pos(), "calls sort.%s, which allocates its closure and interface header; insert into a sorted scratch buffer instead", fn.Name())
				return true
			}
		}
	}
	s.checkBoxing(call)
	return false
}

// checkAppendDst classifies the append destination. A named reusable buffer
// — an identifier, an element of one, or a reslice (buf[:0]) — is the
// sanctioned shape. A bare struct field grows its backing array in place
// (the classic unbounded-growth leak on a replay path), and anything built
// in place (literal, conversion, call result) is a fresh slice.
func (s *scanner) checkAppendDst(call *ast.CallExpr) {
	switch ast.Unparen(call.Args[0]).(type) {
	case *ast.Ident, *ast.IndexExpr, *ast.SliceExpr:
		return
	case *ast.SelectorExpr:
		s.add(call.Pos(), "appends to a struct field, which reallocates the backing array as it grows; reslice a warm buffer (field[:0]) or audit the amortized growth")
	default:
		s.add(call.Pos(), "calls append, which allocates: appends to a fresh slice; append into a reusable scratch buffer (e.g. buf[:0])")
	}
}

// checkBoxing flags interface conversions, which allocate when the operand
// is not already an interface: the explicit any(x)/I(x) form when the call
// is a type conversion, and the implicit form when a concrete value meets an
// interface-typed parameter. (panic calls never reach here — call skips their
// whole argument subtree.)
func (s *scanner) checkBoxing(call *ast.CallExpr) {
	tv, ok := s.info.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// Explicit conversion I(x): boxing iff target is an interface and
		// the operand is a concrete (non-interface, non-nil) value.
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && s.boxes(call.Args[0]) {
			s.add(call.Pos(), "converts to an interface, which boxes the value on the heap; keep the concrete type through the steady state")
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return // built-in or otherwise signatureless
	}
	if call.Ellipsis != token.NoPos {
		return // f(xs...) passes an existing slice; nothing boxes per call
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isTypeParam := pt.(*types.TypeParam); isTypeParam {
			continue // instantiation decides; not a boxing site per se
		}
		if types.IsInterface(pt) && s.boxes(arg) {
			s.add(arg.Pos(), "passes a concrete value where %s is expected, which boxes it on the heap; take or keep the concrete type on the hot path", pt.String())
		}
	}
}

// boxes reports whether passing/converting arg to an interface type
// allocates: true for concrete non-constant values, false for values that
// are already interfaces, for nil, and for constants — the compiler backs a
// constant-to-interface conversion with static data, so nothing reaches the
// heap.
func (s *scanner) boxes(arg ast.Expr) bool {
	tv, ok := s.info.Types[arg]
	if !ok {
		return false
	}
	if tv.IsNil() || tv.Value != nil {
		return false
	}
	return !types.IsInterface(tv.Type)
}

func (s *scanner) isString(e ast.Expr) bool {
	tv, ok := s.info.Types[e]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
