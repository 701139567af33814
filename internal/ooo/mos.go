package ooo

import (
	"redsoc/internal/core"
	"redsoc/internal/obs"
	"redsoc/internal/trace"
)

// tryFuse implements the MOS comparator: after issuing a single-cycle
// producer, look for the oldest waiting single-cycle dependent whose delay
// fits in the producer's remaining cycle budget and execute it piggybacked
// in the same cycle on the same unit.
//
// The candidates are the producer's own waiters, not the whole RS: every
// dependent dispatched while the producer was unissued — which is every
// dependent, since it issues (and broadcasts) exactly once, now — registered
// on its tag. Waiters are appended at dispatch, so the list is ascending by
// seq and the probe runs oldest-first, the order the old seq-sorted RS scan
// probed in; a consumer naming the producer in two operands registered twice,
// back to back, and is probed once.
//
//redsoc:hotpath
func (s *Simulator) tryFuse(e *entry, cycle int64) {
	if e.bits&trace.BitSingleCycle == 0 || e.bits&trace.BitMem != 0 {
		return
	}
	tpc := s.clock.CyclesToTicks(1)
	window := s.clock.CycleStart(cycle + 1)
	prev := none
	for _, bi := range e.waiters {
		if bi == prev {
			continue
		}
		prev = bi
		b := s.ent(bi)
		if b.state != stWaiting || b.fused || b.bits&trace.BitSingleCycle == 0 || b.fu != e.fu {
			continue
		}
		if e.exTicks+b.exTicks > tpc {
			continue
		}
		dependsOnE := false
		ok := true
		for i := 0; i < int(b.nsrc); i++ {
			pi := b.srcs[i].prod
			if pi == none {
				continue
			}
			p := s.ent(pi)
			if p == e {
				dependsOnE = true
				continue
			}
			if p.broadcastCycle < 0 || p.broadcastCycle >= cycle || p.estComp > window {
				ok = false
				break
			}
		}
		if !dependsOnE || !ok {
			continue
		}
		out := s.execute(b, nil)
		if s.estimator.Aggressive(b.est, out.ActualWidth) {
			// The fused pair would miss timing: abandon this fusion with no
			// side effects. b is still stWaiting and will issue (and width-
			// validate) through the normal path later; counting a replay or
			// rewriting its EX-TIME here would double-account that path.
			continue
		}
		if b.est.Predicted {
			// The fusion lands, so this is b's real execution: train the
			// width predictor exactly once (the precheck above guarantees
			// the prediction was not aggressive).
			s.estimator.Validate(s.in(b), b.est, out.ActualWidth)
		}
		b.storeOutcome(out)
		b.sched = core.Schedule{Start: window, Comp: window + tpc, FUCycles: 0}
		b.estComp = b.sched.Comp
		b.trueComp = b.sched.Comp
		b.broadcastCycle = cycle
		b.state = stIssued
		b.fused = true
		b.chainLen = 1
		s.rsRemove(b)
		s.res.FusedOps++
		s.wakeWaiters(b)
		s.trainLastArrival(b)
		s.classify(b, out)
		if s.obs != nil {
			s.obs.Emit(obs.Event{Kind: obs.KindIssue, Cycle: cycle, Seq: b.seq, Op: b.op,
				PC: b.pc, FU: uint8(b.fu), Unit: -1, Flags: obs.FlagFused,
				Start: b.sched.Start, Comp: b.sched.Comp, Arg: e.seq})
		}
		return
	}
}
