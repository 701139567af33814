// The taint interpreter: a flow-sensitive abstract interpretation of one
// function body over the framework's CFG, using the worklist solver. The
// abstract state maps local objects (parameters, locals, captured variables —
// identity is types.Object, so closures share state with their host
// naturally) to taint bitmasks. The same interpreter runs in two modes:
// summarize accumulates the function's funcFact, report emits diagnostics at
// sink crossings.
package detflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"redsoc/internal/analysis/framework"
	"redsoc/internal/analysis/simdeterminism"
)

type mode int

const (
	modeSummarize mode = iota
	modeReport
)

// state is the abstract store. Missing keys are untainted.
type state map[types.Object]uint32

func (s state) clone() state {
	out := make(state, len(s))
	for k, v := range s { //lint:allow simdeterminism order-independent: map copy
		out[k] = v
	}
	return out
}

// joinStates is the pointwise union, the solver's merge.
func joinStates(dst state, seen bool, src state) (state, bool) {
	if !seen {
		return src.clone(), true
	}
	changed := false
	for k, v := range src { //lint:allow simdeterminism order-independent: pointwise union
		if dst[k]|v != dst[k] {
			dst[k] |= v
			changed = true
		}
	}
	return dst, changed
}

type checker struct {
	pass *framework.Pass
	mode mode
	fact funcFact
	// edgesAt indexes the call graph's edges for the enclosing declaration by
	// call position, so interface-dispatched calls compose the facts of every
	// CHA-resolved implementation.
	edgesAt map[token.Pos][]framework.CallEdge
	// racy marks channel objects sent to from inside a spawned goroutine:
	// receiving from one yields arrival-order taint.
	racy map[types.Object]bool
	// selRecv marks receive expressions that are the comm of a multi-case
	// select: the runtime picks among ready cases pseudo-randomly.
	selRecv map[ast.Node]bool
	// reported dedupes diagnostics: the solver may run a block's transfer
	// several times on the way to the fixpoint.
	reported map[string]bool
}

// analyzeFunc interprets one declaration and returns its summary.
func analyzeFunc(pass *framework.Pass, fd *ast.FuncDecl, m mode) funcFact {
	c := &checker{
		pass:     pass,
		mode:     m,
		racy:     map[types.Object]bool{},
		selRecv:  map[ast.Node]bool{},
		reported: map[string]bool{},
	}
	if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil && pass.Graph != nil {
		c.edgesAt = map[token.Pos][]framework.CallEdge{}
		for _, e := range pass.Graph.Callees[framework.FactKey(obj)] {
			c.edgesAt[e.Pos] = append(c.edgesAt[e.Pos], e)
		}
	}
	c.prepass(fd.Body)

	entry := state{}
	bit := 0
	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					entry[obj] = paramBit(bit)
				}
				bit++
			}
		}
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					entry[obj] = paramBit(bit)
				}
				bit++
			}
		}
	}
	c.fact.Ret |= c.analyzeBody(fd.Body, entry)
	return c.fact
}

// prepass collects the function-wide facts the flow-sensitive walk needs up
// front: which channels worker goroutines send on, and which receives sit in
// multi-case selects.
func (c *checker) prepass(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			ast.Inspect(n.Call, func(m ast.Node) bool {
				if send, ok := m.(*ast.SendStmt); ok {
					if root := c.rootObj(send.Chan); root != nil {
						c.racy[root] = true
					}
				}
				return true
			})
		case *ast.SelectStmt:
			comms := 0
			for _, cl := range n.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
					comms++
				}
			}
			if comms < 2 {
				return true
			}
			for _, cl := range n.Body.List {
				cc, ok := cl.(*ast.CommClause)
				if !ok || cc.Comm == nil {
					continue
				}
				ast.Inspect(cc.Comm, func(m ast.Node) bool {
					if u, ok := m.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						c.selRecv[u] = true
					}
					return true
				})
			}
		}
		return true
	})
}

// analyzeBody solves the taint transfer over body's CFG starting from entry
// and returns the taint of its return values.
func (c *checker) analyzeBody(body *ast.BlockStmt, entry state) uint32 {
	cfg := framework.BuildCFG(body)
	var ret uint32
	transfer := func(b *framework.Block, s state) state {
		st := s.clone()
		for _, stmt := range b.Stmts {
			c.stmt(st, stmt, &ret)
		}
		if b.Cond != nil {
			c.eval(b.Cond, st)
		}
		return st
	}
	framework.Solve(cfg, entry, transfer, joinStates)
	return ret
}

func (c *checker) stmt(st state, s ast.Stmt, ret *uint32) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		c.assign(st, s)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				var t uint32
				if i < len(vs.Values) {
					t = c.eval(vs.Values[i], st)
				} else if len(vs.Values) == 1 {
					t = c.eval(vs.Values[0], st)
				}
				c.assignOne(st, name, t)
			}
		}
	case *ast.ExprStmt:
		c.eval(s.X, st)
	case *ast.SendStmt:
		t := c.eval(s.Value, st)
		if root := c.rootObj(s.Chan); root != nil {
			st[root] |= t
		}
	case *ast.IncDecStmt:
		c.eval(s.X, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			*ret |= c.eval(r, st)
		}
	case *ast.RangeStmt:
		c.rangeStmt(st, s)
	case *ast.GoStmt:
		c.eval(s.Call, st)
	case *ast.DeferStmt:
		c.eval(s.Call, st)
	case *ast.LabeledStmt:
		c.stmt(st, s.Stmt, ret)
	}
}

// assign handles tuple, parallel and op-assignments.
func (c *checker) assign(st state, a *ast.AssignStmt) {
	if len(a.Rhs) == 1 && len(a.Lhs) > 1 {
		t := c.eval(a.Rhs[0], st)
		for _, l := range a.Lhs {
			c.assignOne(st, l, t)
		}
		return
	}
	for i, l := range a.Lhs {
		if i >= len(a.Rhs) {
			break
		}
		t := c.eval(a.Rhs[i], st)
		if a.Tok != token.ASSIGN && a.Tok != token.DEFINE {
			// Op-assignment (+=, ^=, ...): the result mixes the old value.
			t |= c.eval(l, st)
		}
		c.assignOne(st, l, t)
	}
}

// assignOne stores taint t into one assignment target, applying the sink and
// laundering rules:
//
//   - a target inside a sink-typed value is a sink crossing (report/record),
//     and the store launders nothing;
//   - otherwise an index-addressed store (buf[i] = v, m[k] = v) launders
//     ORDER taint — each slot is written once, so reassembly is independent
//     of arrival order — while value taint propagates to the container;
//   - plain stores propagate everything.
func (c *checker) assignOne(st state, lhs ast.Expr, t uint32) {
	lhs = ast.Unparen(lhs)
	if desc, pos, ok := c.sinkTarget(lhs); ok {
		c.sinkHit(pos, t, desc)
		if root := c.rootObj(lhs); root != nil {
			st[root] |= t & intrinsicMask
		}
		return
	}
	switch l := lhs.(type) {
	case *ast.Ident:
		if obj := c.objOf(l); obj != nil {
			st[obj] = t
		}
	case *ast.IndexExpr:
		c.eval(l.Index, st)
		if root := c.rootObj(l.X); root != nil {
			st[root] |= t &^ orderTaint
		}
	case *ast.SelectorExpr, *ast.StarExpr:
		if root := c.rootObj(lhs); root != nil {
			st[root] |= t
		}
	}
}

// sinkTarget reports whether lhs writes into a determinism sink: a selector
// whose base (at any depth: met.Cycles, r.FinalRegs[addr], set.Points[i].IPC)
// is sink-typed. Returns a description for the report and the position to
// report at.
func (c *checker) sinkTarget(lhs ast.Expr) (string, token.Pos, bool) {
	e := lhs
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if tv, ok := c.pass.TypesInfo.Types[x.X]; ok {
				if name := sinkTypeName(tv.Type); name != "" {
					return fmt.Sprintf("the %s field %s", name, x.Sel.Name), x.Sel.Pos(), true
				}
			}
			e = x.X
		default:
			return "", token.NoPos, false
		}
	}
}

// sinkHit records a taint arrival at a sink: intrinsic bits are reported
// (reporting mode), param bits become part of the function's Sink summary so
// callers report at their call sites.
func (c *checker) sinkHit(pos token.Pos, t uint32, desc string) {
	c.fact.Sink |= t &^ intrinsicMask
	if c.mode == modeReport && t&intrinsicMask != 0 {
		c.report(pos, "%s flows into %s, a determinism sink; derive it from sorted iteration and seeded sources, or audit with lint:allow detflow", flavor(t), desc)
	}
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.pass.Allowed("detflow", pos) {
		return
	}
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d:%s", pos, msg)
	if c.reported[key] {
		return
	}
	c.reported[key] = true
	c.pass.Reportf(pos, "%s", msg)
}

// allowedSource reports whether a source site carries an audit that vouches
// for it: either detflow's own, or a simdeterminism audit — the reviewer
// already asserted the order cannot matter, and detflow honors that.
func (c *checker) allowedSource(pos token.Pos) bool {
	return c.pass.Allowed("detflow", pos) || c.pass.Allowed("simdeterminism", pos)
}

func (c *checker) rangeStmt(st state, s *ast.RangeStmt) {
	t := c.eval(s.X, st)
	keyT := t
	if tv, ok := c.pass.TypesInfo.Types[s.X]; ok {
		switch tv.Type.Underlying().(type) {
		case *types.Map:
			if !c.allowedSource(s.Pos()) {
				t |= orderTaint
				keyT |= orderTaint
			}
		case *types.Chan:
			if root := c.rootObj(s.X); root != nil && c.racy[root] && !c.allowedSource(s.Pos()) {
				t |= orderTaint
			}
			keyT = t
		case *types.Slice, *types.Array, *types.Pointer:
			keyT = 0 // the index is deterministic even over a tainted slice
		}
	}
	if s.Key != nil {
		c.assignOne(st, s.Key, keyT)
	}
	if s.Value != nil {
		c.assignOne(st, s.Value, t)
	}
}

// eval returns the taint of an expression, with side effects: calls are
// composed through summaries, closures are interpreted in place, sinks
// reached by arguments are recorded.
func (c *checker) eval(e ast.Expr, st state) uint32 {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := c.objOf(e); obj != nil {
			return st[obj]
		}
	case *ast.ParenExpr:
		return c.eval(e.X, st)
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := c.pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
				return 0
			}
		}
		return c.eval(e.X, st)
	case *ast.IndexExpr:
		return c.eval(e.X, st) | c.eval(e.Index, st)
	case *ast.IndexListExpr:
		return c.eval(e.X, st)
	case *ast.SliceExpr:
		return c.eval(e.X, st)
	case *ast.StarExpr:
		return c.eval(e.X, st)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return c.recv(e, st)
		}
		return c.eval(e.X, st)
	case *ast.BinaryExpr:
		return c.eval(e.X, st) | c.eval(e.Y, st)
	case *ast.CallExpr:
		return c.call(e, st)
	case *ast.TypeAssertExpr:
		return c.eval(e.X, st)
	case *ast.CompositeLit:
		return c.composite(e, st)
	case *ast.KeyValueExpr:
		return c.eval(e.Key, st) | c.eval(e.Value, st)
	case *ast.FuncLit:
		// A literal used as a value: interpret its body for sink crossings
		// with the captures' current taint. Its parameters are unknown here,
		// so they stay untainted; direct invocations bind them in call().
		c.analyzeBody(e.Body, st.clone())
	}
	return 0
}

// recv is a channel receive: the channel's accumulated taint, plus arrival-
// order taint when workers feed the channel or the runtime picks the case.
func (c *checker) recv(e *ast.UnaryExpr, st state) uint32 {
	t := c.eval(e.X, st)
	if c.selRecv[e] && !c.allowedSource(e.Pos()) {
		t |= orderTaint
	}
	if root := c.rootObj(e.X); root != nil && c.racy[root] && !c.allowedSource(e.Pos()) {
		t |= orderTaint
	}
	return t
}

// composite evaluates a literal; a sink-typed literal is itself a sink.
func (c *checker) composite(e *ast.CompositeLit, st state) uint32 {
	sink := ""
	if tv, ok := c.pass.TypesInfo.Types[e]; ok {
		sink = sinkTypeName(tv.Type)
	}
	var t uint32
	for _, elt := range e.Elts {
		et := c.eval(elt, st)
		if sink != "" {
			c.sinkHit(elt.Pos(), et, fmt.Sprintf("a %s literal", sink))
		}
		t |= et
	}
	return t
}

// call composes a call expression: sources, launderers, encoder sinks,
// closure invocation, and summary application for everything resolvable —
// including one summary per CHA edge for interface dispatch. Unresolvable
// targets (function values, unsummarized externals like fmt.Sprintf) pass
// their arguments' taint through to the result, which is the conservative
// direction.
func (c *checker) call(e *ast.CallExpr, st state) uint32 {
	// Type conversion: taint passes through.
	if tv, ok := c.pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() {
		var t uint32
		for _, a := range e.Args {
			t |= c.eval(a, st)
		}
		return t
	}
	// Builtins: len/cap/make/new yield deterministic values even over
	// order-tainted containers; the rest pass through.
	if id := calleeIdent(e.Fun); id != nil {
		if _, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch id.Name {
			case "len", "cap", "make", "new", "delete", "clear":
				for _, a := range e.Args {
					c.eval(a, st)
				}
				return 0
			default:
				var t uint32
				for _, a := range e.Args {
					t |= c.eval(a, st)
				}
				return t
			}
		}
	}
	// Direct closure invocation: bind arguments to the literal's parameters.
	if lit, ok := ast.Unparen(e.Fun).(*ast.FuncLit); ok {
		inner := st.clone()
		i := 0
		if lit.Type.Params != nil {
			for _, field := range lit.Type.Params.List {
				for _, name := range field.Names {
					if obj := c.pass.TypesInfo.Defs[name]; obj != nil && i < len(e.Args) {
						inner[obj] = c.eval(e.Args[i], st)
					}
					i++
				}
			}
		}
		return c.analyzeBody(lit.Body, inner)
	}

	fn := framework.CalleeFunc(c.pass.TypesInfo, e)

	// Effective arguments: receiver first for method calls, mirroring the
	// param-bit numbering in analyzeFunc.
	var args []ast.Expr
	if fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
				args = append(args, sel.X)
			}
		}
	}
	args = append(args, e.Args...)
	argT := make([]uint32, len(args))
	for i, a := range args {
		argT[i] = c.eval(a, st)
	}

	if fn != nil {
		if (simdeterminism.TimeNow(fn) || simdeterminism.GlobalRand(fn)) && !c.allowedSource(e.Pos()) {
			return valueTaint
		}
		if sortLaunder(fn) && len(e.Args) > 0 {
			if root := c.rootObj(e.Args[0]); root != nil {
				st[root] &^= orderTaint
			}
			return 0
		}
		if encoderSink(fn) {
			for i, a := range e.Args {
				c.sinkHit(a.Pos(), argT[len(args)-len(e.Args)+i],
					fmt.Sprintf("the encoded output of %s", fn.Name()))
			}
			return 0
		}
	}

	// Compose summaries: one per resolved edge at this call site (covers
	// interface dispatch), falling back to the direct resolution.
	var keys []string
	for _, edge := range c.edgesAt[e.Pos()] {
		keys = append(keys, edge.Callee)
	}
	if len(keys) == 0 && fn != nil {
		keys = []string{framework.FactKey(fn)}
	}
	var res uint32
	known := false
	for _, key := range keys {
		raw, ok := c.pass.ImportFactKey(key)
		fact, _ := raw.(funcFact)
		if !ok {
			if c.pass.Graph != nil {
				if _, analyzed := c.pass.Graph.Decls[key]; analyzed {
					known = true // summarized as taint-free
				}
			}
			continue
		}
		known = true
		res |= fact.Ret & intrinsicMask
		for i, t := range argT {
			bit := paramBit(i)
			if fact.Ret&bit != 0 {
				res |= t
			}
			if fact.Sink&bit != 0 {
				c.fact.Sink |= t &^ intrinsicMask
				if c.mode == modeReport && t&intrinsicMask != 0 {
					c.report(args[i].Pos(), "%s flows into a determinism sink inside %s; sort or seed it before the call, or audit with lint:allow detflow", flavor(t), framework.TrimPath(key, 1))
				}
			}
		}
	}
	if !known {
		// Unresolvable or external without a summary: conservative
		// pass-through of the arguments and the callee value itself.
		res = c.eval(e.Fun, st)
		for _, t := range argT {
			res |= t
		}
	}
	return res
}

// calleeIdent unwraps a call target to its identifier, when it is one.
func calleeIdent(fun ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(fun).(*ast.Ident)
	return id
}

func (c *checker) objOf(id *ast.Ident) types.Object {
	if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return c.pass.TypesInfo.Defs[id]
}

// rootObj unwraps an expression to the variable it is rooted in: the `buf`
// of buf[i], the `oc` of oc.value, the `s` of s.results[i].seq.
func (c *checker) rootObj(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.Ident:
			obj := c.objOf(x)
			if _, ok := obj.(*types.Var); ok {
				return obj
			}
			return nil
		default:
			return nil
		}
	}
}
