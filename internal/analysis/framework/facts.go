// The fact store: how analyzers see across package boundaries. An analyzer's
// Summarize pass runs over every package in dependency order and records a
// fact per object of interest (typically per function: "returns a
// nondeterministic value", "allocates in its body"). When a later package's
// Run pass meets a call into an already-summarized package, it looks the
// callee's fact up by key instead of needing its source.
//
// Facts are keyed by a stable string derived from the object's fully
// qualified name rather than by types.Object identity, because the same
// function is a *different* object on its two sides: source-checked in its
// home package, export-data-loaded in its importers. The qualified name is
// identical in both views, so the key bridges them.
package framework

import (
	"fmt"
	"go/types"
	"sort"
	"strings"
)

// FactKey returns the stable cross-package key for an object: the package
// path, the receiver type for methods, and the name —
// "redsoc/internal/ooo.(*Simulator).step" or "redsoc/internal/obs.WriteJSON".
// For *types.Func this is exactly types.Func.FullName.
func FactKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return fn.FullName()
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}

// TrimPath keeps the last n slash-separated segments of s, for report
// messages: n=1 shortens a FactKey to its package's last path segment
// ("(*redsoc/internal/ooo.Simulator).wake" -> "(*ooo.Simulator).wake"), n=2
// shortens a position to its directory and file ("ooo/sim.go:412:3"). A
// method key's leading "(*" survives the cut.
func TrimPath(s string, n int) string {
	parts := strings.Split(s, "/")
	if len(parts) <= n {
		return s
	}
	lead := s[:len(s)-len(strings.TrimLeft(s, "(*"))]
	return lead + strings.Join(parts[len(parts)-n:], "/")
}

// FactStore holds every fact exported during a run's Summarize phase,
// namespaced per analyzer so two analyzers' facts about the same function
// cannot collide.
type FactStore struct {
	m map[string]map[string]any // analyzer -> object key -> fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: map[string]map[string]any{}}
}

func (s *FactStore) export(analyzer, key string, fact any) {
	facts := s.m[analyzer]
	if facts == nil {
		facts = map[string]any{}
		s.m[analyzer] = facts
	}
	facts[key] = fact
}

func (s *FactStore) lookup(analyzer, key string) (any, bool) {
	fact, ok := s.m[analyzer][key]
	return fact, ok
}

// Keys returns every object key the analyzer exported a fact for, sorted,
// for deterministic whole-program iteration.
func (s *FactStore) Keys(analyzer string) []string {
	keys := make([]string, 0, len(s.m[analyzer]))
	for k := range s.m[analyzer] { //lint:allow simdeterminism order-independent: sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ExportFact records a fact about obj under the pass's analyzer. Later
// passes — of the same analyzer, over any package — retrieve it with
// ImportFact. Exporting twice overwrites (Summarize may iterate to a
// fixpoint).
func (p *Pass) ExportFact(obj types.Object, fact any) {
	p.ExportFactKey(FactKey(obj), fact)
}

// ExportFactKey is ExportFact for a precomputed key (useful when the
// "object" is synthetic, e.g. a function literal named by position).
func (p *Pass) ExportFactKey(key string, fact any) {
	if p.Facts == nil {
		panic(fmt.Sprintf("analysis: %s exports facts but RunAnalyzers did not attach a FactStore", p.Analyzer.Name)) //lint:allow panicpolicy audited invariant: framework misuse, not input
	}
	p.Facts.export(p.Analyzer.Name, key, fact)
}

// ImportFact retrieves the fact this pass's analyzer exported about obj, or
// (nil, false) when none exists — an unanalyzed (export-data-only) callee.
func (p *Pass) ImportFact(obj types.Object) (any, bool) {
	return p.ImportFactKey(FactKey(obj))
}

// ImportFactKey is ImportFact for a precomputed key.
func (p *Pass) ImportFactKey(key string) (any, bool) {
	if p.Facts == nil {
		return nil, false
	}
	return p.Facts.lookup(p.Analyzer.Name, key)
}
