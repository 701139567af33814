// Package ooo stands in for the scheduler (its path segment puts it in
// obszeroalloc's scope).
package ooo

import (
	"fmt"

	"obs"
)

type sim struct {
	obs   obs.Sink
	cycle int64
}

// guarded is the sanctioned shape: every emission sits inside the nil-check.
func (s *sim) guarded(seq int64) {
	if s.obs != nil {
		s.obs.Emit(obs.Event{Kind: 1, Cycle: s.cycle, Seq: seq})
	}
}

// earlyOut guards the rest of the function with an `== nil` return.
func (s *sim) earlyOut(seq int64) {
	if s.obs == nil {
		return
	}
	s.obs.Emit(obs.Event{Kind: 2, Cycle: s.cycle, Seq: seq})
	for i := 0; i < 4; i++ {
		s.obs.Emit(obs.Event{Kind: 3, Cycle: s.cycle, Seq: seq + int64(i)})
	}
}

// unguarded pays an interface call on every invocation even with tracing
// disabled (and dereferences a nil sink).
func (s *sim) unguarded(seq int64) {
	s.obs.Emit(obs.Event{Kind: 1, Cycle: s.cycle, Seq: seq}) // want `obs emission without an enabled-guard`
}

// wrongGuard checks a different expression than the one it emits through.
func (s *sim) wrongGuard(other obs.Sink, seq int64) {
	if other != nil {
		s.obs.Emit(obs.Event{Kind: 1, Seq: seq}) // want `obs emission without an enabled-guard`
	}
}

// invertedGuard has the nil-check backwards: the emission runs exactly when
// the sink is nil.
func (s *sim) invertedGuard(seq int64) {
	if s.obs == nil {
		s.obs.Emit(obs.Event{Kind: 1, Seq: seq}) // want `obs emission without an enabled-guard`
		return
	}
}

// compoundGuard folds the nil-check into a conjunction — still guarded.
func (s *sim) compoundGuard(seq int64, fired bool) {
	if s.obs != nil && !fired {
		s.obs.Emit(obs.Event{Kind: 5, Cycle: s.cycle, Seq: seq})
	}
}

// compoundEarlyOut bails when the sink is nil or tracing is off — the
// disjunction's failure proves the sink non-nil below.
func (s *sim) compoundEarlyOut(seq int64, off bool) {
	if s.obs == nil || off {
		return
	}
	s.obs.Emit(obs.Event{Kind: 6, Cycle: s.cycle, Seq: seq})
}

// disguisedGuard only LOOKS like a guard: `||` does not prove the sink
// non-nil inside the body.
func (s *sim) disguisedGuard(seq int64, force bool) {
	if s.obs != nil || force {
		s.obs.Emit(obs.Event{Kind: 7, Seq: seq}) // want `obs emission without an enabled-guard`
	}
}

// loopGuard hoists the check out of the loop — still guarded.
func (s *sim) loopGuard(n int) {
	if s.obs != nil {
		for i := 0; i < n; i++ {
			s.obs.Emit(obs.Event{Kind: 4, Seq: int64(i)})
		}
	}
}

// concrete emissions through a concrete sink type follow the same rule.
func (s *sim) concrete(r *obs.Ring, seq int64) {
	r.Emit(obs.Event{Kind: 1, Seq: seq}) // want `obs emission without an enabled-guard`
	if r != nil {
		r.Emit(obs.Event{Kind: 1, Seq: seq})
	}
}

// allocating emissions defeat the zero-alloc contract even when guarded.
func (s *sim) allocating(seq int64, name string) {
	if s.obs != nil {
		s.obs.Emit(obs.Event{Kind: 1, Seq: seq, Arg: int64(len(fmt.Sprintf("%d", seq)))})   // want `calls fmt\.Sprintf, which allocates`
		s.obs.Emit(obs.Event{Kind: 1, Seq: seq, Arg: int64(len([]int64{seq}))})             // want `allocates a slice literal`
		s.obs.Emit(obs.Event{Kind: 1, Seq: seq, Arg: int64(len(name + "!"))})               // want `concatenates strings`
		s.obs.Emit(obs.Event{Kind: 1, Seq: seq, Arg: int64(len(append([]byte(nil), 'x')))}) // want `calls append, which allocates`
	}
}

// funcLit: a closure may run on any path, so the lexical guard outside it
// does not carry in.
func (s *sim) funcLit(seq int64) func() {
	if s.obs != nil {
		return func() {
			s.obs.Emit(obs.Event{Kind: 1, Seq: seq}) // want `obs emission without an enabled-guard`
		}
	}
	return nil
}

// allowed demonstrates the audited-suppression escape hatch.
func (s *sim) allowed(seq int64) {
	//lint:allow obszeroalloc one-shot emission on the error path, not hot
	s.obs.Emit(obs.Event{Kind: 9, Seq: seq})
}
