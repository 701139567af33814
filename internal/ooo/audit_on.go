//go:build redsoc_audit

package ooo

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
//  4. No lost wakeups: after each cycle's ready-set merge, every waiting
//     reservation-station entry outside the ready set is unschedulable —
//     none satisfies trackedReady, specEligible or specPending. The
//     tag-indexed scheduler only examines ready-set entries, so a
//     schedulable entry outside it would silently never issue (or issue
//     late) instead of deadlocking loudly.
//  5. A program's canonical final state (final.go) is read-only: each run
//     that adopts it first checks that its shared FinalRegs and FinalMem
//     maps still hold what was published, so a caller that wrote into a
//     Result's maps is caught at the next run of that program.
//  6. Lockstep commit: the engine commits exactly what the in-order
//     architectural interpreter (internal/arch) executes. The interpreter
//     steps once per committed instruction, and the first commit whose
//     destination value, store data or flags differ from its step fails,
//     so a divergence is reported at the instruction that committed it,
//     not as a mismatched final state at the end of the run.
//
// Violations panic with full context: an audit build exists to crash loudly
// at the first inconsistency, not to keep simulating on corrupted timing.

import (
	"fmt"
	"maps"
	"sync"

	"redsoc/internal/arch"
	"redsoc/internal/core"
	"redsoc/internal/isa"
	"redsoc/internal/mem"
	"redsoc/internal/obs"
	"redsoc/internal/timing"
	"redsoc/internal/trace"
)

// auditState tracks the last completion instant per functional unit and the
// lockstep interpreter, created at the first commit.
type auditState struct {
	lastComp [numFUKinds]map[int]timing.Ticks
	arch     *arch.State
}

// Enabled reports whether the runtime audit layer is compiled in.
func (*auditState) Enabled() bool { return true }

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
	if !e.op.SingleCycle() {
		return
	}

	// Invariant 2: the transparent-dataflow FU-hold bound (IT3). A violation
	// replay is exempt: its honest synchronous re-plan may need 2 cycles for
	// a fault-drifted delay without being a recycled evaluation.
	if sched.FUCycles > 2 && !e.violated {
		auditFailf(s, e, "FU held %d cycles; the transparent-dataflow rule allows at most 2", sched.FUCycles)
	}
	if sched.FUCycles == 2 && !sched.Recycled && !e.violated {
		auditFailf(s, e, "synchronous single-cycle evaluation held its FU 2 cycles; only recycled ops may cross an edge")
	}

	// Invariant 3: estimates may overstate, never understate — unless an
	// injected fault deliberately broke the estimate, in which case the
	// violation detector must have restored the post-recovery guarantee
	// (checked unconditionally below).
	if actual := s.clock.PSToTicks(e.delayPS); actual > e.exTicks && e.faulted == 0 {
		auditFailf(s, e, "estimated EX-TIME %d ticks understates actual evaluation time %d ticks (%d ps)",
			e.exTicks, actual, e.delayPS)
	}
	// Post-recovery guarantee: whatever was injected, the final schedule
	// covers the true evaluation — Razor recovery must leave no residue.
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

// onCommit asserts invariant 6 for the entry retiring from the ROB head,
// before it writes architectural state.
func (a *auditState) onCommit(s *Simulator, e *entry) {
	if a.arch == nil {
		a.arch = takeArch(s.dec.Image)
	}
	if int64(e.ti) != a.arch.Steps {
		auditFailf(s, e, "pc %#x: commits trace index %d, but the interpreter is at %d", e.pc, e.ti, a.arch.Steps)
	}
	in := s.in(e)
	want := a.arch.Step(in)
	vec := e.bits&trace.BitVecAccess != 0
	switch {
	case e.isStore && (e.result.Lo != want.Result.Lo || vec && e.result.Hi != want.Result.Hi):
		auditFailf(s, e, "pc %#x: store data %v, interpreter %v", e.pc, e.result, want.Result)
	case e.bits&trace.BitHasDest != 0 && e.dest != flagsRenameIdx && e.result != want.Result:
		auditFailf(s, e, "pc %#x: %v = %v, interpreter %v", e.pc, in.DestReg(), e.result, want.Result)
	}
	writesFlags := e.bits&trace.BitSetFlagsExtra != 0 || e.bits&trace.BitHasDest != 0 && e.dest == flagsRenameIdx
	if writesFlags && e.flagsOut != want.FlagsOut {
		auditFailf(s, e, "pc %#x: flags %+v, interpreter %+v", e.pc, e.flagsOut, want.FlagsOut)
	}
	if a.arch.Steps == int64(len(s.prog.Instrs)) {
		spareArch.Lock()
		spareArch.free = append(spareArch.free, a.arch)
		spareArch.Unlock()
		a.arch = nil
	}
}

// spareArch holds the lockstep interpreters of finished runs, so that an
// audit build's warm runs reuse one instead of copying a memory image each.
var spareArch struct {
	sync.Mutex
	free []*arch.State
}

// takeArch returns an interpreter in the start state of a program whose
// initial memory is img: arch.New's state, built from the shared image.
func takeArch(img *mem.Image) *arch.State {
	spareArch.Lock()
	defer spareArch.Unlock()
	n := len(spareArch.free)
	if n == 0 {
		return &arch.State{Mem: mem.NewMemoryFromImage(img)}
	}
	st := spareArch.free[n-1]
	spareArch.free = spareArch.free[:n-1]
	*st = arch.State{Mem: st.Mem}
	st.Mem.Reset(img)
	return st
}

// onCommitMem asserts the LSQ-head alignment invariant: when a memory op
// retires from the ROB head, the LSQ head must be that same op — in-order
// commit keeps the two queues in lockstep, and the ring-buffer LSQ pops
// blindly on that assumption.
func (a *auditState) onCommitMem(s *Simulator, ei, lsqHead int32) {
	if lsqHead != ei {
		head := int64(-1)
		if lsqHead >= 0 {
			head = s.ent(lsqHead).seq
		}
		auditFailf(s, s.ent(ei), "LSQ head seq %d misaligned with committing memory op", head)
	}
}

// onArbRequests asserts the precondition of the arbiter's sorted fast path:
// issue builds each pool's request list from the seq-sorted ready set, so
// the ages must arrive in strictly ascending order.
func (a *auditState) onArbRequests(s *Simulator, reqs []core.Request) {
	for i := 1; i < len(reqs); i++ {
		if reqs[i-1].Age >= reqs[i].Age {
			panic(fmt.Sprintf("ooo: audit: %s/%s: arbiter requests out of age order at %d: %d >= %d",
				s.cfg.Name, s.cfg.Policy, i, reqs[i-1].Age, reqs[i].Age))
		}
	}
}

// onReadyMerged asserts invariant 4 once the wake buffer has been folded into
// the ready set: a waiting entry outside the set must be blocked on an event
// it is registered for. The check is exactly the scan's keep rule applied to
// the entries the scan does not visit (specEligible implies specPending).
func (a *auditState) onReadyMerged(s *Simulator, cycle int64) {
	for _, ei := range s.rs {
		e := s.ent(ei)
		if e.inReady {
			continue
		}
		if ok, _ := s.trackedReady(e, cycle); ok || s.specPending(e, cycle) {
			auditFailf(s, e, "lost wakeup at cycle %d: schedulable waiting entry is outside the ready set", cycle)
		}
	}
}

// onAdoptFinal asserts invariant 5 before a run adopts the canonical state f.
func (a *auditState) onAdoptFinal(s *Simulator, f *finalState) {
	regs := len(f.FinalRegs) == archFileRegs
	for i := 0; regs && i < isa.NumIntRegs; i++ {
		v, ok := f.FinalRegs[isa.R(i)]
		regs = ok && v == f.regs[isa.R(i).RenameIndex()]
	}
	for i := 0; regs && i < isa.NumVecRegs; i++ {
		v, ok := f.FinalRegs[isa.V(i)]
		regs = ok && v == f.regs[isa.V(i).RenameIndex()]
	}
	if !regs || !maps.Equal(f.FinalMem, f.mem.Snapshot()) {
		panic(fmt.Sprintf("ooo: audit: %s/%s program %q: the canonical final state's shared FinalRegs/FinalMem maps were written after publication; Result maps are read-only",
			s.cfg.Name, s.cfg.Policy, s.prog.Name))
	}
}

// auditFailf reports an invariant violation and aborts the run. When a
// flight recorder is attached, the panic message carries the recorder's tail
// so the events leading up to the failure survive into the crash report.
func auditFailf(s *Simulator, e *entry, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	head := fmt.Sprintf("ooo: audit: %s/%s seq %d op %v: %s",
		s.cfg.Name, s.cfg.Policy, e.seq, e.op, msg)
	if ring, ok := s.obs.(*obs.Ring); ok && ring.Len() > 0 {
		head += "\nflight recorder (last " + fmt.Sprint(len(ring.Tail(flightTail))) + " events):\n" +
			obs.FormatStream(ring.Tail(flightTail), s.clock.TicksPerCycle())
	}
	panic(head)
}

// flightTail bounds how many trailing events an audit panic reproduces.
const flightTail = 16
