// Package simdeterminism guards the reproducibility of simulation results.
// The scheduler model (internal/ooo), the select/slack logic (internal/core),
// the memory model (internal/mem) and the fault injector (internal/fault)
// must produce bit-identical statistics for identical inputs — that is what
// makes the paper's figures, the sweep harness and the parallel campaign
// engine comparable at all. The analyzer flags the constructs that silently
// break that property: map iteration feeding any computation, wall-clock
// reads, use of math/rand's shared global source, spawned goroutines and
// multi-way selects. Explicitly seeded generators
// (rand.New(rand.NewSource(seed))) are sanctioned: they are exactly how a
// component like the fault injector gets reproducible variation.
//
// The campaign engine (internal/campaign) gets a narrower, orchestration
// scope: goroutines and channel selects are its entire purpose — it
// parallelizes *across* independent runs, which is the sanctioned shape of
// concurrency here — but value-level nondeterminism inside a worker (global
// math/rand draws, map iteration feeding results) would still break the
// bit-identity between one-worker and N-worker campaigns, so those rules
// stay on.
package simdeterminism

import (
	"go/ast"
	"go/types"
	"strings"

	"redsoc/internal/analysis/framework"
)

// Analyzer flags nondeterministic constructs inside the simulation packages.
var Analyzer = &framework.Analyzer{
	Name: "simdeterminism",
	Doc: "inside simulation packages (ooo, core, mem, fault): flags `range` over maps, time.Now, " +
		"calls through math/rand's global source, `go` statements and multi-case selects — " +
		"anything whose order or value can differ between two runs of the same workload. " +
		"In the orchestration scope (campaign) goroutines and selects are sanctioned, but " +
		"global-rand draws and map iteration in workers are still flagged, and so is a " +
		"seeded *rand.Rand reached from more than one worker goroutine: seeding makes the " +
		"sequence reproducible, but which worker gets which draw depends on scheduling",
	Run: run,
}

// simPackages names the package-path segments under the full determinism
// rules. Other packages (reporting, CLIs, workload generators with seeded
// rand) are out of scope by design.
var simPackages = map[string]bool{"ooo": true, "core": true, "mem": true, "fault": true}

// orchestrationPackages run many independent simulations concurrently.
// Spawning goroutines and selecting across channels is their job; only the
// value-level rules apply there, because a worker drawing from the global
// RNG (or iterating a map into its result) breaks the one-worker versus
// N-worker bit-identity the engine promises.
var orchestrationPackages = map[string]bool{"campaign": true}

type scope int

const (
	outOfScope scope = iota
	simScope
	orchestrationScope
)

func scopeOf(pkgPath string) scope {
	for _, seg := range strings.Split(pkgPath, "/") {
		if simPackages[seg] {
			return simScope
		}
		if orchestrationPackages[seg] {
			return orchestrationScope
		}
	}
	return outOfScope
}

func run(pass *framework.Pass) error {
	sc := scopeOf(pass.Pkg.Path())
	if sc == outOfScope {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if tv, ok := pass.TypesInfo.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(), "range over map: iteration order is nondeterministic; iterate sorted keys, or annotate if every path through the body is order-independent")
					}
				}
			case *ast.CallExpr:
				fn := framework.CalleeFunc(pass.TypesInfo, n)
				if TimeNow(fn) && sc == simScope {
					pass.Reportf(n.Pos(), "time.Now in a simulation package: simulated time must come from the cycle counter, never the wall clock")
				}
				if GlobalRand(fn) {
					pass.Reportf(n.Pos(), "%s.%s uses math/rand's shared global source, which is unseeded between runs; draw from an explicit rand.New(rand.NewSource(seed)) instance instead", fn.Pkg().Name(), fn.Name())
				}
			case *ast.GoStmt:
				if sc == simScope {
					pass.Reportf(n.Pos(), "goroutine spawned in a simulation package: scheduling order is nondeterministic; keep per-run state single-threaded and parallelize across runs instead")
				}
				if sc == orchestrationScope {
					checkSharedRand(pass, f, n)
				}
			case *ast.SelectStmt:
				if sc == simScope && n.Body != nil && len(n.Body.List) > 1 {
					pass.Reportf(n.Pos(), "multi-case select: case choice among ready channels is randomized by the runtime")
				}
			}
			return true
		})
	}
	return nil
}

// checkSharedRand guards the one seeded-generator shape seeding does NOT
// sanction: a *rand.Rand (often inside an injector-style struct) captured by
// a worker goroutine's closure. Each worker's draws then interleave by
// scheduling order, so the sequence each task observes differs between a
// 1-worker and an N-worker campaign even though the generator is seeded.
// The fix is a generator per task (seeded from the task index) or draws
// serialized before the workers fork.
//
// A generator declared *inside* the loop that spawns the workers is a fresh
// per-task instance and stays sanctioned; only captures reaching outside the
// innermost enclosing loop are shared between iterations' goroutines.
func checkSharedRand(pass *framework.Pass, file *ast.File, g *ast.GoStmt) {
	fl, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	loop := innermostLoop(file, g)
	if loop == nil {
		// A lone goroutine is not a worker pool; the pool shapes that break
		// merge-by-index all spawn inside a loop.
		return
	}
	reported := map[types.Object]bool{}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || reported[obj] {
			return true
		}
		// Declared inside the spawning loop (including inside the closure
		// itself): per-iteration state, not shared between workers.
		if obj.Pos() >= loop.Pos() && obj.Pos() < loop.End() {
			return true
		}
		if !containsRand(obj.Type(), 0, map[types.Type]bool{}) {
			return true
		}
		reported[obj] = true
		pass.Reportf(id.Pos(), "worker goroutine captures %q, which holds a *rand.Rand: a seeded generator shared across campaign workers hands out its sequence in scheduling order; give each task its own generator seeded from the task index", obj.Name())
		return true
	})
}

// innermostLoop returns the smallest for/range statement in file that
// encloses n, or nil when n sits outside any loop.
func innermostLoop(file *ast.File, n ast.Node) ast.Node {
	var best ast.Node
	ast.Inspect(file, func(cand ast.Node) bool {
		switch cand.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if cand.Pos() <= n.Pos() && n.End() <= cand.End() {
				if best == nil || (best.Pos() <= cand.Pos() && cand.End() <= best.End()) {
					best = cand
				}
			}
		}
		return true
	})
	return best
}

// containsRand reports whether t holds a math/rand generator: a *rand.Rand
// directly, or one reachable through pointers, struct fields, slices, arrays
// or maps (bounded depth — the injector-in-a-config shape, not arbitrary
// object graphs).
func containsRand(t types.Type, depth int, seen map[types.Type]bool) bool {
	if depth > 4 || seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Name() == "Rand" {
			if p := obj.Pkg().Path(); p == "math/rand" || p == "math/rand/v2" {
				return true
			}
		}
		return containsRand(named.Underlying(), depth+1, seen)
	}
	switch t := t.(type) {
	case *types.Pointer:
		return containsRand(t.Elem(), depth, seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if containsRand(t.Field(i).Type(), depth+1, seen) {
				return true
			}
		}
	case *types.Slice:
		return containsRand(t.Elem(), depth+1, seen)
	case *types.Array:
		return containsRand(t.Elem(), depth+1, seen)
	case *types.Map:
		return containsRand(t.Elem(), depth+1, seen)
	}
	return false
}

// GlobalRand reports whether fn is a package-level function of math/rand or
// math/rand/v2 — the convenience API backed by the process-global source.
// Constructors (New, NewSource, NewZipf, ...) and methods on an explicit
// generator are sanctioned: a component that owns a seeded *rand.Rand is
// reproducible by construction. detflow treats the same calls as value-taint
// sources.
func GlobalRand(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false // a method on an explicit source or generator
	}
	return !strings.HasPrefix(fn.Name(), "New")
}

// TimeNow reports whether fn is time.Now, the wall-clock read.
func TimeNow(fn *types.Func) bool {
	return fn != nil && fn.Name() == "Now" && fn.Pkg() != nil && fn.Pkg().Path() == "time"
}
