//go:build redsoc_audit

package oooref

// The redsoc_audit build tag arms a runtime invariant checker that asserts,
// on every issued operation, the dynamic properties the static analyzers
// (cmd/redsoc-vet) cannot see:
//
//  1. Per functional unit, the completion instants of single-cycle
//     (transparent-capable) evaluations are strictly increasing — a unit
//     never finishes an operation before one it started earlier. Width
//     replays are exempt: a replayed op re-executes two cycles after the
//     slot it occupied, intentionally completing out of band.
//  2. An operation holds its FU for at most 2 cycles, and only a recycled
//     (mid-cycle) evaluation may need the second cycle — the paper's IT3
//     transparent-dataflow rule (Sec. III).
//  3. The estimated completion never understates the actual evaluation
//     time: estimated EX-TIME ≥ actual delay, and the broadcast completion
//     instant covers start + actual. This is ReDSOC's "overstate, never
//     understate" safety argument made executable.
//
// Violations panic with full context: an audit build exists to crash loudly
// at the first inconsistency, not to keep simulating on corrupted timing.

import (
	"fmt"

	"redsoc/internal/timing"
)

// auditState tracks the last completion instant per functional unit.
type auditState struct {
	lastComp [numFUKinds]map[int]timing.Ticks
}

// onIssue checks the invariants for one operation the scheduler just issued
// on the given unit of its FU pool.
func (a *auditState) onIssue(s *Simulator, e *entry, unit int) {
	sched := e.sched

	if sched.Comp < sched.Start {
		auditFailf(s, e, "completion instant %d precedes start %d", sched.Comp, sched.Start)
	}

	// Multi-cycle, memory and FP operations are "true synchronous": they may
	// legitimately occupy their unit for their full latency, and their
	// estimates are whole cycles by construction. The remaining invariants
	// govern the single-cycle (transparent-capable) operations slack
	// recycling actually touches.
	if !e.in.Op.SingleCycle() {
		return
	}

	// Invariant 2: the transparent-dataflow FU-hold bound (IT3). A violation
	// replay is exempt: its honest synchronous re-plan may need 2 cycles
	// without being a recycled evaluation.
	if sched.FUCycles > 2 && !e.violated {
		auditFailf(s, e, "FU held %d cycles; the transparent-dataflow rule allows at most 2", sched.FUCycles)
	}
	if sched.FUCycles == 2 && !sched.Recycled && !e.violated {
		auditFailf(s, e, "synchronous single-cycle evaluation held its FU 2 cycles; only recycled ops may cross an edge")
	}

	// Invariant 3: estimates may overstate, never understate.
	if actual := s.clock.PSToTicks(e.delayPS); actual > e.exTicks {
		auditFailf(s, e, "estimated EX-TIME %d ticks understates actual evaluation time %d ticks (%d ps)",
			e.exTicks, actual, e.delayPS)
	}
	// Post-recovery guarantee: the final schedule covers the true
	// evaluation — Razor recovery must leave no residue.
	if sched.Comp < sched.Start+s.clock.PSToTicks(e.delayPS) {
		auditFailf(s, e, "final CI %d understates start %d + actual %d ps", sched.Comp, sched.Start, e.delayPS)
	}
	if e.trueComp > sched.Comp {
		auditFailf(s, e, "true completion %d escapes the recovered schedule's CI %d", e.trueComp, sched.Comp)
	}

	// Invariant 1: per-unit completion instants strictly increase.
	if e.replays > 0 {
		return
	}
	if a.lastComp[e.fu] == nil {
		a.lastComp[e.fu] = make(map[int]timing.Ticks)
	}
	if last, seen := a.lastComp[e.fu][unit]; seen && sched.Comp <= last {
		auditFailf(s, e, "completion instant %d not after predecessor %d on %v unit %d", sched.Comp, last, e.fu, unit)
	}
	a.lastComp[e.fu][unit] = sched.Comp
}

// onCommitMem asserts the LSQ-head alignment invariant: when a memory op
// retires from the ROB head, the LSQ head must be that same op — in-order
// commit keeps the two queues in lockstep, and the ring-buffer LSQ pops
// blindly on that assumption.
func (a *auditState) onCommitMem(s *Simulator, e, lsqHead *entry) {
	if lsqHead != e {
		head := int64(-1)
		if lsqHead != nil {
			head = lsqHead.seq
		}
		auditFailf(s, e, "LSQ head seq %d misaligned with committing memory op", head)
	}
}

// auditFailf reports an invariant violation and aborts the run.
func auditFailf(s *Simulator, e *entry, format string, args ...any) {
	panic(fmt.Sprintf("ooo: audit: %s/%s seq %d op %v: %s",
		s.cfg.Name, s.cfg.Policy, e.seq, e.in.Op, fmt.Sprintf(format, args...)))
}
