// Package detflow is the whole-program determinism proof: an interprocedural
// taint analysis that tracks nondeterministic values from their sources to
// the artifacts the simulator publishes. Where simdeterminism flags the
// *constructs* (a map range, a time.Now call) lexically and only inside the
// simulation packages, detflow follows the *values*: a sum accumulated over a
// map range three calls away from the Metrics it lands in is a finding here
// and invisible there.
//
// Taint has two flavors, because the repository's determinism contract
// distinguishes them:
//
//   - order taint: the value depends on an unspecified visit order — map
//     iteration, arrival order on a channel fed by worker goroutines, the
//     runtime's choice among ready select cases.
//   - value taint: the value embeds an unreproducible read — the wall clock,
//     math/rand's unseeded global source.
//
// The distinction is what lets the campaign engine's merge-by-index idiom be
// modeled precisely instead of blanket-allowed: a store through an index
// (results[oc.index] = oc.value) launders ORDER taint, because each slot is
// written exactly once and the reassembled slice is identical whatever the
// arrival order — but it does not launder VALUE taint, because a wall-clock
// read is wrong in every slot regardless of order. Sorting launders order
// taint the same way (sort.Strings over collected map keys is the sanctioned
// iteration idiom). Writes into a determinism sink launder nothing: a sink
// field is terminal output, and an order-dependent value is order-dependent
// wherever it lands.
//
// Sinks are the published artifacts: fields of the result/metrics types
// (ooo.Result, obs.Metrics/MetricsSet, the harness report types — matched by
// type name so fixtures and future packages participate), and anything
// handed to a JSON encoder. Sources already audited for simdeterminism
// (//lint:allow simdeterminism <reason>) are not re-flagged: the audit said
// the order cannot matter, and detflow honors it; detflow-specific audits use
// //lint:allow detflow <reason> at either the source or the sink.
//
// Interprocedurally, each function is summarized by a funcFact: which taint
// its return carries intrinsically, which parameters flow to its return, and
// which parameters reach a sink inside it (transitively). Summaries are
// computed to a fixpoint per package in dependency order, so a caller three
// packages up sees through the whole chain; the reporting pass then flags the
// exact statement where tainted data crosses into a sink — in the function
// that owns the sink write, or at the call site that feeds a sink-reaching
// parameter.
package detflow

import (
	"go/ast"
	"go/types"
	"strings"

	"redsoc/internal/analysis/framework"
)

// Analyzer proves that published results are deterministic functions of the
// inputs, whole-program.
var Analyzer = &framework.Analyzer{
	Name: "detflow",
	Doc: "interprocedural taint analysis from nondeterminism sources (map iteration order, " +
		"worker-fed channels, multi-ready selects, time.Now, global math/rand) to determinism " +
		"sinks (Result/Metrics/Report fields, JSON encoders), flow-sensitively through calls, " +
		"closures, struct fields and channel sends; index-addressed stores and sorting launder " +
		"order taint, modeling the campaign engine's merge-by-index contract precisely",
	Summarize: summarize,
	Run:       run,
}

// Taint bits. Bits 0 and 1 are the intrinsic flavors; bit paramShift+i means
// "flows from parameter i" (receiver first), which is how summaries stay
// polymorphic in their arguments.
const (
	orderTaint uint32 = 1 << 0
	valueTaint uint32 = 1 << 1

	intrinsicMask = orderTaint | valueTaint
	paramShift    = 2
	maxParams     = 30
)

func paramBit(i int) uint32 {
	if i < 0 || i >= maxParams {
		return 0
	}
	return 1 << (paramShift + i)
}

// funcFact is one function's interprocedural summary.
type funcFact struct {
	// Ret is the taint of the function's return values: intrinsic bits for
	// sources inside the function, param bits for arguments that flow
	// through to the return.
	Ret uint32
	// Sink holds the param bits of parameters that reach a determinism sink
	// inside the function or its callees. A caller passing an intrinsically
	// tainted argument to such a parameter is reported at the call site.
	Sink uint32
}

// summarize computes funcFacts for the package to a fixpoint. Facts only
// grow (bitwise union), so iteration terminates; in-package recursion and
// mutual recursion converge, and cross-package callees are already final
// because RunAnalyzers summarizes in dependency order.
func summarize(pass *framework.Pass) error {
	for {
		changed := false
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
				key := framework.FactKey(obj)
				fact := analyzeFunc(pass, fd, modeSummarize)
				prev, _ := pass.ImportFactKey(key)
				old, _ := prev.(funcFact)
				merged := funcFact{Ret: old.Ret | fact.Ret, Sink: old.Sink | fact.Sink}
				if merged != old {
					pass.ExportFactKey(key, merged)
					changed = true
				}
			}
		}
		if !changed {
			return nil
		}
	}
}

// run re-analyzes each function with the (now final) summaries and reports
// every point where intrinsically tainted data crosses into a sink.
func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pass.TypesInfo.Defs[fd.Name] == nil {
				continue
			}
			analyzeFunc(pass, fd, modeReport)
		}
	}
	return nil
}

// sinkTypeName reports the determinism-sink name of t, or "" when t is not a
// sink. Matching is by type name — Result, Metrics, MetricsSet, anything
// containing Report — so the contract covers ooo.Result, obs.Metrics and the
// harness report family without importing them, and testdata stand-ins
// participate identically.
func sinkTypeName(t types.Type) string {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	name := named.Obj().Name()
	switch {
	case name == "Result" || name == "Metrics" || name == "MetricsSet":
		return name
	case strings.Contains(name, "Report"):
		return name
	}
	return ""
}

// encoderSink reports whether fn serializes its arguments into published
// output: encoding/json's Marshal family, (*json.Encoder).Encode, or any
// function named WriteJSON (the obs package's export entry point).
func encoderSink(fn *types.Func) bool {
	if fn.Name() == "WriteJSON" {
		return true
	}
	if fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
		return false
	}
	switch fn.Name() {
	case "Marshal", "MarshalIndent", "Encode":
		return true
	}
	return false
}

// sortLaunder reports whether fn is a sort entry point that imposes a
// deterministic order on its first argument, erasing order taint: the
// "iterate sorted keys" idiom.
func sortLaunder(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort", "slices":
		return strings.HasPrefix(fn.Name(), "Sort") || fn.Name() == "Strings" ||
			fn.Name() == "Ints" || fn.Name() == "Float64s" || fn.Name() == "Slice" ||
			fn.Name() == "SliceStable" || fn.Name() == "Stable"
	}
	return false
}

// flavor renders taint bits for a report message.
func flavor(t uint32) string {
	switch t & intrinsicMask {
	case orderTaint | valueTaint:
		return "a value that depends on both iteration/arrival order and a wall-clock or RNG read"
	case orderTaint:
		return "an iteration/arrival-order-dependent value"
	default:
		return "a wall-clock- or RNG-derived value"
	}
}
