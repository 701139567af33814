// Package obszeroalloc guards the zero-overhead contract of the obs
// observability layer inside the scheduler's hot loops (internal/ooo). The
// simulator promises that with no sink attached, tracing costs one
// predictable nil-check branch per hook — and that with a sink attached,
// emitting an event allocates nothing, because obs.Event is a fixed-size
// value. Both properties are easy to break silently: an Emit call outside
// its `if s.obs != nil` guard turns every simulated cycle into an interface
// call, and a fmt.Sprintf or slice literal smuggled into an event argument
// turns the hot loop into an allocation site. The analyzer flags both;
// "allocates" is the hotpath analyzer's definition (hotpath.Scan), applied
// to each emission argument, so the two contracts cannot drift apart.
package obszeroalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"redsoc/internal/analysis/framework"
	"redsoc/internal/analysis/hotpath"
)

// Analyzer enforces the obs zero-overhead contract in scheduler packages.
var Analyzer = &framework.Analyzer{
	Name: "obszeroalloc",
	Doc: "inside the scheduler (ooo): flags obs sink emissions that are not enclosed in an " +
		"`if <sink> != nil` enabled-guard (or preceded by an `if <sink> == nil { return }` " +
		"early-out), and emission arguments that allocate by the hotpath analyzer's rules — " +
		"fmt calls, string concatenation or conversion, slice/map literals, make/new, append " +
		"to a fresh slice, boxing — so disabled tracing stays a single branch and enabled " +
		"tracing stays allocation-free",
	Run: run,
}

// hotPackages names the package-path segments under the rule. The obs
// package itself, campaign drivers and CLIs build events and strings off the
// hot path by design.
var hotPackages = map[string]bool{"ooo": true}

func inScope(pkgPath string) bool {
	for _, seg := range strings.Split(pkgPath, "/") {
		if hotPackages[seg] {
			return true
		}
	}
	return false
}

func run(pass *framework.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				walkStmts(pass, fd.Body.List, map[string]bool{})
			}
		}
	}
	return nil
}

// walkStmts traverses a statement list tracking which sink expressions are
// known non-nil on the current path. Guards accumulate lexically: an
// `if X != nil` guards its body, and an `if X == nil { return/panic }`
// early-out guards the statements that follow it.
func walkStmts(pass *framework.Pass, stmts []ast.Stmt, guards map[string]bool) {
	for _, st := range stmts {
		walkStmt(pass, st, guards)
		if ifs, ok := st.(*ast.IfStmt); ok && ifs.Else == nil && terminal(ifs.Body) {
			if exprs := nonNilWhenFalse(pass, ifs.Cond); len(exprs) > 0 {
				guards = withGuards(guards, exprs)
			}
		}
	}
}

func walkStmt(pass *framework.Pass, st ast.Stmt, guards map[string]bool) {
	switch s := st.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, guards)
		}
		checkExpr(pass, s.Cond, guards)
		bodyGuards := guards
		if exprs := nonNilWhenTrue(pass, s.Cond); len(exprs) > 0 {
			bodyGuards = withGuards(guards, exprs)
		}
		walkStmts(pass, s.Body.List, bodyGuards)
		if s.Else != nil {
			walkStmt(pass, s.Else, guards)
		}
	case *ast.BlockStmt:
		walkStmts(pass, s.List, guards)
	case *ast.ForStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, guards)
		}
		if s.Cond != nil {
			checkExpr(pass, s.Cond, guards)
		}
		if s.Post != nil {
			walkStmt(pass, s.Post, guards)
		}
		walkStmts(pass, s.Body.List, guards)
	case *ast.RangeStmt:
		checkExpr(pass, s.X, guards)
		walkStmts(pass, s.Body.List, guards)
	case *ast.SwitchStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, guards)
		}
		if s.Tag != nil {
			checkExpr(pass, s.Tag, guards)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkStmts(pass, cc.Body, guards)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkStmts(pass, cc.Body, guards)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				walkStmts(pass, cc.Body, guards)
			}
		}
	case *ast.LabeledStmt:
		walkStmt(pass, s.Stmt, guards)
	default:
		ast.Inspect(st, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				// A function literal may run on any path; its body needs its
				// own guard.
				walkStmts(pass, fl.Body.List, map[string]bool{})
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				checkEmit(pass, call, guards)
			}
			return true
		})
	}
}

// checkExpr scans a non-statement expression (conditions, range operands)
// for emissions — Emit has no results, so finding one here is unusual, but a
// function literal could hide one.
func checkExpr(pass *framework.Pass, e ast.Expr, guards map[string]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			walkStmts(pass, fl.Body.List, map[string]bool{})
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			checkEmit(pass, call, guards)
		}
		return true
	})
}

// checkEmit applies both rules to one sink emission call site.
func checkEmit(pass *framework.Pass, call *ast.CallExpr, guards map[string]bool) {
	recv, ok := emitReceiver(pass, call)
	if !ok {
		return
	}
	if !guards[types.ExprString(recv)] {
		pass.Reportf(call.Pos(),
			"obs emission without an enabled-guard: wrap in `if %s != nil { ... }` so disabled tracing stays a single branch",
			types.ExprString(recv))
	}
	for _, arg := range call.Args {
		for _, site := range hotpath.Scan(pass.TypesInfo, arg) {
			pass.Reportf(site.Pos, "obs emission argument %s", site.Message)
		}
	}
}

// emitReceiver recognizes a call to the obs layer's Emit (through the Sink
// interface or a concrete sink) and returns the receiver expression.
func emitReceiver(pass *framework.Pass, call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Emit" {
		return nil, false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil, false
	}
	segs := strings.Split(fn.Pkg().Path(), "/")
	if segs[len(segs)-1] != "obs" {
		return nil, false
	}
	return sel.X, true
}

// nonNilWhenTrue returns the expressions known non-nil when cond is true:
// `X != nil` contributes X, and a `&&` conjunction contributes both sides
// (the whole condition held, so every conjunct did).
func nonNilWhenTrue(pass *framework.Pass, cond ast.Expr) []ast.Expr {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	switch be.Op {
	case token.LAND:
		return append(nonNilWhenTrue(pass, be.X), nonNilWhenTrue(pass, be.Y)...)
	case token.NEQ:
		if expr, ok := nilCompare(pass, be); ok {
			return []ast.Expr{expr}
		}
	}
	return nil
}

// nonNilWhenFalse returns the expressions known non-nil when cond is false:
// `X == nil` contributes X, and a `||` disjunction contributes both sides
// (the whole condition failed, so every disjunct did).
func nonNilWhenFalse(pass *framework.Pass, cond ast.Expr) []ast.Expr {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	switch be.Op {
	case token.LOR:
		return append(nonNilWhenFalse(pass, be.X), nonNilWhenFalse(pass, be.Y)...)
	case token.EQL:
		if expr, ok := nilCompare(pass, be); ok {
			return []ast.Expr{expr}
		}
	}
	return nil
}

// nilCompare matches `X <op> nil` or `nil <op> X` and returns X.
func nilCompare(pass *framework.Pass, be *ast.BinaryExpr) (ast.Expr, bool) {
	if isNil(pass, be.Y) {
		return be.X, true
	}
	if isNil(pass, be.X) {
		return be.Y, true
	}
	return nil, false
}

func isNil(pass *framework.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}

// terminal reports whether a block always leaves the enclosing function or
// loop iteration, making an `if X == nil` early-out a guard for what follows.
func terminal(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func withGuards(guards map[string]bool, exprs []ast.Expr) map[string]bool {
	out := make(map[string]bool, len(guards)+len(exprs))
	for k := range guards {
		out[k] = true
	}
	for _, e := range exprs {
		out[types.ExprString(e)] = true
	}
	return out
}
