package ooo

import (
	"fmt"

	"redsoc/internal/alu"
	"redsoc/internal/core"
	"redsoc/internal/fault"
	"redsoc/internal/isa"
	"redsoc/internal/mem"
	"redsoc/internal/obs"
	"redsoc/internal/timing"
	"redsoc/internal/trace"
)

// awake reports whether a producer's (tag, CI) broadcast is visible to
// selection at the given cycle: broadcasts are visible from the cycle after
// they happen (same-cycle visibility is exactly what EGPW exists for).
//
//redsoc:hotpath
func awake(p *entry, cycle int64) bool {
	return p != nil && p.broadcastCycle >= 0 && p.broadcastCycle < cycle
}

// tracksAllParents reports whether this entry's wakeup monitors every parent
// tag: every core but ReDSOC's Operational design does (allTags; 2 tags per
// RSE), and the Operational design falls back to it after a last-arrival
// misprediction.
//
//redsoc:hotpath
func (s *Simulator) tracksAllParents(e *entry) bool {
	return s.allTags || e.validated
}

// canTransparent reports whether the op may evaluate through the transparent
// bypass under the current policy. A degraded FU pool schedules everything
// synchronously (baseline conservative timing) until its controller re-arms.
//
//redsoc:hotpath
func (s *Simulator) canTransparent(e *entry) bool {
	return s.params.Recycle && e.bits&trace.BitSingleCycle != 0 && !s.degr[e.fu].Degraded()
}

// trackedReady returns whether the entry's tracked parents have all
// broadcast, and the latest tracked completion instant. This is the
// hardware's view at wakeup; untracked operands are validated at issue.
//
//redsoc:hotpath
func (s *Simulator) trackedReady(e *entry, cycle int64) (bool, timing.Ticks) {
	var ready timing.Ticks
	consider := func(pi int32) bool {
		if pi == none {
			return true
		}
		p := s.ent(pi)
		if !awake(p, cycle) {
			return false
		}
		if p.estComp > ready {
			ready = p.estComp
		}
		return true
	}
	if s.tracksAllParents(e) {
		for i := 0; i < int(e.nsrc); i++ {
			if !consider(e.srcs[i].prod) {
				return false, 0
			}
		}
	} else if e.lastIdx >= 0 {
		if !consider(e.srcs[e.lastIdx].prod) {
			return false, 0
		}
	}
	// Loads additionally respect their memory dependence.
	if e.isLoad && e.memDep != none {
		dep := s.ent(e.memDep)
		if forwardable(dep, e) {
			if s.specLSQ && !e.validated && dep.state == stWaiting {
				// Speculative LSQ allocation: the load bets its store will
				// have executed by register read and requests issue without
				// waiting for the store's broadcast (age-ordered grants run
				// the store first when both win the same cycle). A lost bet
				// is a misallocation squash at issue validation (lsqSquash),
				// which falls the entry back to conventional store wakeup.
			} else if !consider(e.memDep) {
				return false, 0
			}
		} else if dep.state != stCommitted {
			return false, 0
		}
	}
	return true, ready
}

// specEligible reports whether the entry can place a speculative EGPW
// request: parent not yet awake, grandparent tag seen (Sec. IV-B), and its
// pool able to evaluate transparently.
//
//redsoc:hotpath
func (s *Simulator) specEligible(e *entry, cycle int64) bool {
	return s.specPending(e, cycle) && !s.degr[e.fu].Degraded()
}

// specPending reports whether the entry is an EGPW candidate whose parent is
// not yet awake but whose grandparent tag has been seen. It differs from
// specEligible only by ignoring pool degradation: a degradation controller
// re-arms silently (no broadcast fires), so such entries must stay in the
// ready set and be re-examined each cycle rather than wait for a tag event.
//
//redsoc:hotpath
func (s *Simulator) specPending(e *entry, cycle int64) bool {
	if !s.egpwCandidate(e) || e.lastIdx < 0 {
		return false
	}
	if pi := e.srcs[e.lastIdx].prod; pi != none && awake(s.ent(pi), cycle) {
		return false // conventional wakeup covers it
	}
	return e.gp != none && awake(s.ent(e.gp), cycle)
}

// issueReq is one reservation-station entry asking its FU pool's select logic
// for a grant this cycle. It carries the entry's age and its position in the
// ready set, so arbitration, grant ordering and the grant-time removal from
// the ready set read no slab entries.
type issueReq struct {
	ei   int32
	pos  int32 // index into s.ready
	seq  int64
	spec bool
}

// mergeReady folds the entries woken since the last scan into the ready set,
// keeping it sorted ascending by seq — the order the old full-RS scan emitted
// wakeup events in, which the golden event-stream fixtures pin. The wake
// buffer is sorted in place (it is small and nearly sorted: dispatch and
// broadcast both produce ascending seqs) and then merged; the two backing
// arrays are swapped each merge so steady state allocates nothing.
//
//redsoc:hotpath
func (s *Simulator) mergeReady() {
	buf := s.wakeBuf
	if len(buf) == 0 {
		return
	}
	for i := 1; i < len(buf); i++ {
		ei := buf[i]
		sq := s.ent(ei).seq
		j := i - 1
		for j >= 0 && s.ent(buf[j]).seq > sq {
			buf[j+1] = buf[j]
			j--
		}
		buf[j+1] = ei
	}
	out := s.readyScratch[:0]
	i, j := 0, 0
	for i < len(s.ready) && j < len(buf) {
		if s.ent(s.ready[i]).seq < s.ent(buf[j]).seq {
			out = append(out, s.ready[i])
			i++
		} else {
			out = append(out, buf[j])
			j++
		}
	}
	out = append(out, s.ready[i:]...)
	out = append(out, buf[j:]...)
	s.readyScratch = s.ready[:0]
	s.ready = out
	s.wakeBuf = buf[:0]
}

// insertBySeq inserts r into the seq-sorted grant list. Pools hand out grants
// in priority (not age) order, and the lists are a handful of entries, so an
// insertion shift replaces the per-cycle sort.Slice closure the old path
// allocated.
//
//redsoc:hotpath
func insertBySeq(granted []issueReq, r issueReq) []issueReq {
	granted = append(granted, r)
	for i := len(granted) - 1; i > 0 && granted[i-1].seq > r.seq; i-- {
		granted[i], granted[i-1] = granted[i-1], granted[i]
	}
	return granted
}

// issue runs one wakeup–select–execute round.
//
// Wakeup is tag-indexed: instead of re-scanning the whole reservation
// station, the scheduler examines only the ready set — entries whose
// registered tag events (producer broadcast, an EGPW candidate's grandparent
// broadcast, store broadcast or commit) have fired since they were last
// examined, entries dispatched while possibly schedulable, and entries
// retained by the keep rules below. An entry found unschedulable for a reason
// that *will* fire a registered event is dropped from the set; everything
// else stays:
//
//   - tracked-ready entries (all monitored tags awake) stay until granted and
//     issued — their remaining obstacles (issue-window eligibility, select
//     bandwidth, validation cancels) emit no broadcast;
//   - EGPW candidates whose grandparent is awake stay even while their pool
//     is degraded (specPending): re-arming is silent.
//
// An issued entry leaves the set at grant time; only entries fused by MOS
// (which never pass through select) are found stale and dropped by the
// scan. The audit build asserts after every merge that no waiting entry
// outside the set is schedulable — a lost wakeup.
//
//redsoc:hotpath
func (s *Simulator) issue(cycle int64) {
	s.mergeReady()
	s.audit.onReadyMerged(s, cycle)
	window := s.clock.CycleStart(cycle + 1)
	params := &s.params

	live := s.ready[:0]
	for _, ei := range s.ready {
		e := s.ent(ei)
		if e.state != stWaiting {
			// Fused since its last examination; registration on a recycled
			// successor is impossible (waiters fire before commit).
			e.inReady = false
			continue
		}
		if ok, ready := s.trackedReady(e, cycle); ok {
			live = append(live, ei)
			if params.IssueEligible(s.clock, window, ready, s.canTransparent(e)) {
				s.reqs[e.fu] = append(s.reqs[e.fu], issueReq{ei: ei, pos: int32(len(live) - 1), seq: e.seq})
				if s.obs != nil && !e.obsWoke {
					e.obsWoke = true
					src := int64(-1)
					if e.lastIdx >= 0 && e.srcs[e.lastIdx].prod != none {
						src = s.ent(e.srcs[e.lastIdx].prod).seq
					}
					s.obs.Emit(obs.Event{Kind: obs.KindWakeup, Cycle: cycle, Seq: e.seq, Op: e.op,
						PC: e.pc, FU: uint8(e.fu), Unit: -1, Arg: src})
				}
			}
			continue
		}
		if s.specEligible(e, cycle) {
			live = append(live, ei)
			s.reqs[e.fu] = append(s.reqs[e.fu], issueReq{ei: ei, pos: int32(len(live) - 1), seq: e.seq, spec: true})
			if s.obs != nil && !e.obsWoke {
				e.obsWoke = true
				s.obs.Emit(obs.Event{Kind: obs.KindWakeup, Cycle: cycle, Seq: e.seq, Op: e.op,
					PC: e.pc, FU: uint8(e.fu), Unit: -1, Flags: obs.FlagSpec, Arg: s.ent(e.gp).seq})
			}
			continue
		}
		if s.specPending(e, cycle) {
			live = append(live, ei)
			continue
		}
		// Blocked on a tag that has not broadcast (or an uncommitted store):
		// the dispatch-time registration re-adds this entry when it fires.
		e.inReady = false
	}
	s.ready = live

	granted := s.granted[:0]
	stalled := false
	for k := fuKind(0); k < numFUKinds; k++ {
		rk := s.reqs[k]
		if len(rk) == 0 {
			continue
		}
		free := s.fus[k].free(cycle + 1)
		conv := 0
		arb := s.arb[:0]
		for _, r := range rk {
			arb = append(arb, core.Request{Age: r.seq, Spec: r.spec})
			if !r.spec {
				conv++
			}
		}
		s.arb = arb
		if conv > free {
			stalled = true
		}
		// The ready set is seq-sorted and the request scan preserves that
		// order, so the requests arrive pre-sorted by age (the audit build
		// verifies this).
		s.audit.onArbRequests(s, arb)
		grants := s.arbiter.GrantSorted(arb, free)
		for _, gi := range grants {
			granted = insertBySeq(granted, rk[gi])
		}
		if s.obs != nil {
			// Per-request select outcome, in request (reservation-station)
			// order within the pool.
			won := s.won[:0]
			for range rk {
				won = append(won, false)
			}
			for _, gi := range grants {
				won[gi] = true
			}
			s.won = won
			for i, r := range rk {
				kind := obs.KindDeny
				if won[i] {
					kind = obs.KindGrant
				}
				var fl obs.Flag
				if r.spec {
					fl = obs.FlagSpec
				}
				re := s.ent(r.ei)
				s.obs.Emit(obs.Event{Kind: kind, Cycle: cycle, Seq: re.seq, Op: re.op,
					PC: re.pc, FU: uint8(k), Unit: -1, Flags: fl})
			}
		}
		s.reqs[k] = rk[:0]
	}
	s.granted = granted
	if stalled {
		s.res.FUStallCycles++
	}

	// Grants were inserted in age order so producers execute before
	// same-cycle (EGPW-woken) consumers. Age order is also ready-set order,
	// so the issued entries are compacted out of the set in the same pass:
	// ready[w:r] is the gap their removal has opened so far.
	ready := s.ready
	w, r := 0, 0
	for _, g := range granted {
		e := s.ent(g.ei)
		if !s.issueEntry(e, cycle, g.spec) {
			continue
		}
		s.rsRemove(e)
		e.inReady = false
		p := int(g.pos)
		if w != r {
			copy(ready[w:], ready[r:p])
		}
		w += p - r
		r = p + 1
	}
	if r > 0 {
		s.res.IssueCycles++
		w += copy(ready[w:], ready[r:])
		s.ready = ready[:w]
	}
}

// rsRemove unlinks an entry that left the waiting state from the
// reservation-station list by swapping the tail slot into its place — O(1)
// against the old full-list compaction, which rescanned the entire window
// every issuing cycle.
//
//redsoc:hotpath
func (s *Simulator) rsRemove(e *entry) {
	last := len(s.rs) - 1
	li := s.rs[last]
	slot := e.rsSlot
	s.rs[slot] = li
	s.ent(li).rsSlot = slot
	s.rs = s.rs[:last]
	e.rsSlot = -1
}

// issueEntry consumes one select grant: validate operand availability, plan
// the execution window, allocate the FU, execute functionally, and broadcast
// (tag, CI). Returns false if the grant was cancelled (wasted).
//
//redsoc:hotpath
func (s *Simulator) issueEntry(e *entry, cycle int64, spec bool) bool {
	window := s.clock.CycleStart(cycle + 1)
	tpc := s.clock.CyclesToTicks(1)
	params := &s.params

	if spec {
		// A GP-woken child may only issue alongside its parent: the grant is
		// wasted if the parent was not selected this very cycle (skewed
		// selection makes this rare), or if there is no slack to recycle.
		pi := e.srcs[e.lastIdx].prod
		if pi == none || s.ent(pi).broadcastCycle != cycle {
			s.res.GPWakeupWasted++
			return false
		}
	}

	// Gather the true readiness over every operand (the register-read /
	// scoreboard validation of the Operational design).
	var trueReady timing.Ticks
	for i := 0; i < int(e.nsrc); i++ {
		pi := e.srcs[i].prod
		if pi == none {
			continue
		}
		p := s.ent(pi)
		if p.broadcastCycle < 0 {
			// An untracked operand is not even in flight towards a value:
			// last-arrival misprediction. Cancel and fall back to all-tag
			// wakeup for this entry.
			return s.cancelGrant(e, cycle, spec)
		}
		if p.estComp > trueReady {
			trueReady = p.estComp
		}
	}
	var fwdDep *entry
	if e.isLoad && e.memDep != none {
		dep := s.ent(e.memDep)
		if dep.state == stWaiting {
			// Only reachable through the speculative-LSQ bet (every other
			// policy waits for the store's broadcast or commit before
			// requesting issue): the store has not executed, so the
			// speculatively allocated queue entry holds no data yet — a
			// misallocation. Squash and fall back to conventional wakeup.
			return s.lsqSquash(e, dep, cycle, spec)
		}
		if dep.state != stCommitted {
			fwdDep = dep
			if dep.estComp > trueReady {
				trueReady = dep.estComp
			}
		}
	}
	transparent := s.canTransparent(e)
	if !params.IssueEligible(s.clock, window, trueReady, transparent) {
		return s.cancelGrant(e, cycle, spec)
	}

	// Plan the execution window and FU occupancy.
	var (
		sched     core.Schedule
		occupancy int
		predLat   int  // loaddelay: tracked delay broadcast for this load
		hasPred   bool // loaddelay: broadcast a tracked CI instead of sched.Comp
		predComp  timing.Ticks
	)
	class := e.class
	switch {
	case transparent:
		var ok bool
		sched, ok = core.PlanTransparent(s.clock, window, trueReady, e.exTicks)
		if !ok {
			return s.cancelGrant(e, cycle, spec)
		}
		occupancy = sched.FUCycles
	case e.isLoad:
		lat := s.loadLatency(e, fwdDep)
		sched = core.PlanSynchronous(s.clock, window, trueReady, s.clock.CyclesToTicks(lat))
		occupancy = 1 // address-generation slot; the cache is pipelined
		if s.loadPred != nil {
			predLat, predComp = s.trackLoadDelay(e, window, trueReady, lat)
			hasPred = true
		}
	case e.isStore:
		s.hier.Access(e.addr) // write-allocate; buffered, latency hidden
		s.res.Mix.MemLL++
		sched = core.PlanSynchronous(s.clock, window, trueReady, tpc)
		occupancy = 1
	case class == isa.ClassDiv:
		lat := timing.MultiCycleLatency(class)
		sched = core.PlanSynchronous(s.clock, window, trueReady, s.clock.CyclesToTicks(lat))
		occupancy = lat // unpipelined
	default:
		lat := timing.MultiCycleLatency(class)
		sched = core.PlanSynchronous(s.clock, window, trueReady, s.clock.CyclesToTicks(lat))
		occupancy = 1 // pipelined
	}
	unit, ok := s.fus[e.fu].allocate(cycle+1, occupancy)
	if !ok {
		// The select arbiter granted at most free(cycle+1) requests, so a
		// full pool here is a scheduler bug, not a recoverable condition.
		panic(fmt.Sprintf("ooo: FU overcommit on %v at cycle %d", e.fu, cycle)) //lint:allow panicpolicy,hotpath audited invariant: grants are bounded by the free-unit count, so this never runs
	}

	out := s.execute(e, fwdDep)
	e.storeOutcome(out)

	// Width-prediction validation (Sec. II-B): aggressive mispredictions are
	// replayed via selective reissue — the op re-executes synchronously two
	// cycles later with its corrected EX-TIME.
	if e.est.Predicted && e.bits&trace.BitSingleCycle != 0 {
		if s.estimator.Validate(s.in(e), e.est, out.ActualWidth) {
			s.res.WidthReplays++
			e.exTicks = s.estimator.CorrectedTicks(s.in(e), out.ActualWidth)
			sched = core.PlanSynchronous(s.clock, window+2*tpc, trueReady, tpc)
			e.replays++
			if s.obs != nil {
				s.obs.Emit(obs.Event{Kind: obs.KindWidthReplay, Cycle: cycle, Seq: e.seq, Op: e.op,
					PC: e.pc, FU: uint8(e.fu), Unit: int16(unit)})
			}
		}
	}

	// The CI that goes on the broadcast bus. When a Razor-style violation is
	// detected below, the honest replayed schedule stays private to this
	// entry (commit and branch redirect use sched.Comp) while consumers keep
	// waking on this optimistic broadcast — exactly the window in which a
	// real core's consumers latch a not-yet-stable value and must be caught
	// by their own cycle-boundary detectors. Under loaddelay the same split
	// carries a load's tracked delay instead of its resolved latency.
	broadcastComp := sched.Comp
	if hasPred {
		broadcastComp = predComp
	}

	// Fault injection at evaluation time: PVT drift beyond the guard band on
	// the FU's combinational path, and hold-time slip on the transparent
	// output latch of a recycled evaluation.
	var latchDrift timing.Ticks
	if s.inject != nil {
		if e.bits&trace.BitSingleCycle != 0 {
			if ps, ok := s.inject.DelayFault(); ok {
				e.delayPS += ps
				e.faulted |= fault.BitDelay
			}
		}
		if sched.Recycled {
			if t, ok := s.inject.LatchFault(); ok {
				latchDrift = t
				e.faulted |= fault.BitLatch
			}
		}
	}

	// The true evaluation time, independent of what the scheduler believes:
	// single-cycle ops take their (possibly drifted) circuit delay;
	// multi-cycle ops keep their pipeline latency.
	evalTicks := sched.Comp - sched.Start
	if e.bits&trace.BitSingleCycle != 0 {
		evalTicks = s.clock.PSToTicks(e.delayPS)
	}

	// Razor-style detection, consumer side: this op latched an operand before
	// the producer's value was truly stable (the producer violated and its
	// broadcast CI understated the truth). Selective reissue: replay the same
	// evaluation synchronously two cycles later, from the producers' true
	// completion — the same recovery path width replays use.
	trueActual := s.trueParentComp(e, fwdDep)
	if sched.Start < trueActual {
		dur := sched.Comp - sched.Start
		sched = core.PlanSynchronous(s.clock, window+2*tpc, trueActual, dur)
		s.recordViolation(e, cycle, unit, false)
	}

	// Razor-style detection, producer side: the evaluation overran the
	// planned completion instant (optimistic LUT estimate, delay drift or
	// latch slip) and the shadow comparator at the output latch caught it.
	// Replay synchronously with the honest evaluation time.
	if trueCompOf(sched, evalTicks, latchDrift) > sched.Comp {
		ready := trueReady
		if trueActual > ready {
			ready = trueActual
		}
		sched = core.PlanSynchronous(s.clock, window+2*tpc, ready, evalTicks)
		s.recordViolation(e, cycle, unit, true)
	}
	e.trueComp = trueCompOf(sched, evalTicks, latchDrift)

	// Transparent-sequence accounting.
	if sched.Recycled {
		s.res.RecycledOps++
		if sched.FUCycles == 2 {
			s.res.TwoCycleHolds++
		}
		if prod := s.producerAt(e, sched.Start); prod != nil {
			e.chainLen = prod.chainLen + 1
			prod.extended = true
		} else {
			e.chainLen = 1
		}
	} else {
		e.chainLen = 1
	}
	if spec {
		s.res.GPWakeupGrants++
	}

	s.trainLastArrival(e)
	s.classify(e, out)

	e.sched = sched
	e.estComp = broadcastComp
	e.broadcastCycle = cycle
	e.state = stIssued
	// The (tag, CI) broadcast: consumers registered on this tag re-enter the
	// ready set; they see the broadcast from the next cycle (awake), except
	// for EGPW children granted alongside this parent this very cycle.
	s.wakeWaiters(e)
	s.audit.onIssue(s, e, unit)
	if s.obs != nil {
		var fl obs.Flag
		if spec {
			fl |= obs.FlagSpec
		}
		if sched.Recycled {
			fl |= obs.FlagRecycled
		}
		if sched.FUCycles == 2 {
			fl |= obs.FlagHold2
		}
		s.obs.Emit(obs.Event{Kind: obs.KindIssue, Cycle: cycle, Seq: e.seq, Op: e.op,
			PC: e.pc, FU: uint8(e.fu), Unit: int16(unit), Flags: fl, Start: sched.Start, Comp: sched.Comp})
		if sched.Recycled {
			// Transparent-latch recycling: the evaluation began mid-cycle on
			// a producer's output latch, extending a chain of Arg links.
			s.obs.Emit(obs.Event{Kind: obs.KindRecycle, Cycle: cycle, Seq: e.seq, Op: e.op,
				PC: e.pc, FU: uint8(e.fu), Unit: int16(unit), Arg: int64(e.chainLen), Start: sched.Start})
		}
		if hasPred {
			// Tracked-delay broadcast: Start carries the CI on the wakeup
			// bus, Comp the honest resolved completion, Arg the tracked
			// delay in cycles.
			s.obs.Emit(obs.Event{Kind: obs.KindLoadDelay, Cycle: cycle, Seq: e.seq, Op: e.op,
				PC: e.pc, FU: uint8(e.fu), Unit: int16(unit), Arg: int64(predLat),
				Start: broadcastComp, Comp: sched.Comp})
		}
		if s.specLSQ && e.isLoad && e.memDep != none {
			if dep := s.ent(e.memDep); forwardable(dep, e) {
				s.obs.Emit(obs.Event{Kind: obs.KindLSQForward, Cycle: cycle, Seq: e.seq, Op: e.op,
					PC: e.pc, FU: uint8(e.fu), Unit: int16(unit), Arg: dep.seq})
			}
		}
	}

	if s.fuse {
		s.tryFuse(e, cycle)
	}
	return true
}

// cancelGrant handles a validation failure at issue: the grant is wasted and
// the entry reverts to all-tag wakeup (replaying like a latency
// misprediction, at lower cost). The recovery also trains the last-arrival
// predictor — the cancel itself identifies the operand that was late.
//
//redsoc:hotpath
func (s *Simulator) cancelGrant(e *entry, cycle int64, spec bool) bool {
	if spec {
		s.res.GPWakeupWasted++
	} else {
		s.res.TagMispredicts++
		s.trainLastArrival(e)
	}
	if s.obs != nil {
		var fl obs.Flag
		if spec {
			fl = obs.FlagSpec
		}
		s.obs.Emit(obs.Event{Kind: obs.KindCancel, Cycle: cycle, Seq: e.seq, Op: e.op,
			PC: e.pc, FU: uint8(e.fu), Unit: -1, Flags: fl})
	}
	e.validated = true
	return false
}

// trueCompOf is the instant a schedule's result is actually valid at its
// output latch: the planned completion, or later if the evaluation (plus any
// transparent-latch slip) overruns it.
//
//redsoc:hotpath
func trueCompOf(sc core.Schedule, evalTicks, latchDrift timing.Ticks) timing.Ticks {
	t := sc.Start + evalTicks
	if sc.Recycled {
		t += latchDrift
	}
	if t < sc.Comp {
		t = sc.Comp // finished early: the output still latches at Comp
	}
	return t
}

// trueParentComp returns the latest instant any operand of e was truly
// stable — the detector's ground truth, as opposed to the broadcast
// estimates trueReady aggregates at register read.
//
//redsoc:hotpath
func (s *Simulator) trueParentComp(e *entry, fwdDep *entry) timing.Ticks {
	var t timing.Ticks
	for i := 0; i < int(e.nsrc); i++ {
		if pi := e.srcs[i].prod; pi != none {
			if p := s.ent(pi); p.trueComp > t {
				t = p.trueComp
			}
		}
	}
	if fwdDep != nil && fwdDep.trueComp > t {
		t = fwdDep.trueComp
	}
	return t
}

// recordViolation accounts one detected timing violation and its selective
// reissue, and reports it to the op's degradation controller.
//
//redsoc:hotpath
func (s *Simulator) recordViolation(e *entry, cycle int64, unit int, latch bool) {
	s.res.TimingViolations++
	s.res.ViolationReplays++
	e.replays++
	e.violated = true
	s.degr[e.fu].Record(cycle)
	if s.obs != nil {
		var fl obs.Flag
		if latch {
			fl = obs.FlagLatch
		}
		s.obs.Emit(obs.Event{Kind: obs.KindViolation, Cycle: cycle, Seq: e.seq, Op: e.op,
			PC: e.pc, FU: uint8(e.fu), Unit: int16(unit), Flags: fl})
	}
}

// producerAt finds the source producer whose completion instant the recycled
// op started at.
//
//redsoc:hotpath
func (s *Simulator) producerAt(e *entry, start timing.Ticks) *entry {
	for i := 0; i < int(e.nsrc); i++ {
		if pi := e.srcs[i].prod; pi != none {
			if p := s.ent(pi); p.estComp == start {
				return p
			}
		}
	}
	return nil
}

// loadLatency resolves a load's latency: store-forwarded loads cost an L1
// hit; others probe the hierarchy. Classification for Fig. 10 happens here.
//
//redsoc:hotpath
func (s *Simulator) loadLatency(e *entry, fwdDep *entry) int {
	if s.specLSQ && s.lsqForward(e) {
		return e.memLat
	}
	if fwdDep != nil && forwardable(fwdDep, e) {
		s.res.Mix.MemLL++
		e.memLat = s.cfg.Mem.L1Latency
		return e.memLat
	}
	lat, level := s.hier.Access(e.addr)
	if level == mem.LevelL1 {
		s.res.Mix.MemLL++
	} else {
		s.res.Mix.MemHL++
	}
	e.memLat = lat
	return lat
}

// execute computes the entry's architectural result without mutating the
// entry: callers latch the outcome with storeOutcome once the issue (or MOS
// fusion) actually lands, so an abandoned fusion probe leaves no residue.
//
//redsoc:hotpath
func (s *Simulator) execute(e *entry, fwdDep *entry) alu.Outcome {
	var ops alu.Operands
	if e.iSrc1 >= 0 {
		ops.Src1 = s.srcValue(e, int(e.iSrc1))
	}
	if e.iSrc2 >= 0 {
		ops.Src2 = s.srcValue(e, int(e.iSrc2))
	}
	if e.iSrc3 >= 0 {
		ops.Src3 = s.srcValue(e, int(e.iSrc3))
	}
	if e.iFlags >= 0 {
		ops.FlagsIn = alu.UnpackFlags(s.srcValue(e, int(e.iFlags)))
	}
	if e.isLoad {
		ops.MemValue = s.loadValue(e, fwdDep)
	}
	return alu.Exec(s.in(e), &ops)
}

// loadValue resolves a load's data: forwarded from the youngest overlapping
// in-flight store, or read from (committed) memory.
//
//redsoc:hotpath
func (s *Simulator) loadValue(e *entry, fwdDep *entry) alu.Value {
	if fwdDep != nil {
		v := fwdDep.result
		if e.addrHi-e.addrLo == 16 {
			return v // 128-bit load fully covered by a 128-bit store
		}
		if e.addrLo == fwdDep.addrLo {
			return alu.Value{Lo: v.Lo}
		}
		return alu.Value{Lo: v.Hi} // second word of a 128-bit store
	}
	if e.bits&trace.BitDstVec != 0 {
		lo, hi := s.memory.Read128(e.addr)
		return alu.Value{Lo: lo, Hi: hi}
	}
	return alu.Value{Lo: s.memory.Read64(e.addr)}
}

// trainLastArrival updates the last-arrival predictor with the operand that
// actually arrived last (Fig. 12's accuracy statistic). A prediction is
// correct when no *other* operand arrives strictly later than the tracked
// one — a tie means both values were available at register read, which is
// exactly what the scoreboard validates.
//
//redsoc:hotpath
func (s *Simulator) trainLastArrival(e *entry) {
	if !e.multiSrc {
		return
	}
	cands := s.cands[:0]
	for i := 0; i < int(e.nsrc); i++ {
		if e.srcs[i].prod != none {
			cands = append(cands, i)
		}
	}
	s.cands = cands
	if len(cands) < 2 {
		return
	}
	comp := func(i int) timing.Ticks {
		p := s.ent(e.srcs[i].prod)
		if p.broadcastCycle < 0 {
			return timing.Ticks(1 << 62) // not yet issued: arrives last for sure
		}
		// Score by the instant the value was actually stable, not the
		// broadcast estimate: once completion instants are dynamic (tracked
		// load delays, violation replays) the optimistic estComp can
		// misidentify the last-arriving operand and train the predictor
		// toward the wrong slot. In a fault-free static-policy run
		// trueComp == estComp, so this is behavior-neutral there.
		return p.trueComp
	}
	// pred is the tracked operand's position among the candidates; actual is
	// the position of the operand that arrived strictly last, across *all*
	// candidates — a 3-producer op (e.g. Src1–Src3, or two sources plus
	// carry) whose third candidate arrives last must train the predictor
	// away from the tracked slot, not be scored against cands[0]/cands[1]
	// only. Ties keep actual == pred: when no other operand is strictly
	// later, the prediction was correct.
	pred := 0
	for ci, idx := range cands {
		if idx == int(e.lastIdx) {
			pred = ci
			break
		}
	}
	actual := pred
	latest := comp(cands[pred])
	for ci, idx := range cands {
		if ci == pred {
			continue
		}
		if t := comp(idx); t > latest {
			latest = t
			actual = ci
		}
	}
	s.lastPred.Update(e.pc, pred, actual)
}

// classify buckets the op for Fig. 10. Memory ops were classified at
// latency resolution. The actual delays timing speculation reads follow
// from operand values alone, so the program's delay profile counts them
// once (DelayProfile), not every run.
//
//redsoc:hotpath
func (s *Simulator) classify(e *entry, out alu.Outcome) {
	switch {
	case e.bits&trace.BitMem != 0:
		// counted in loadLatency / the store path
	case e.class == isa.ClassSIMD:
		s.res.Mix.SIMD++
	case e.bits&trace.BitSingleCycle == 0:
		s.res.Mix.OtherMulti++
	case timing.IsHighSlack(out.DelayPS):
		s.res.Mix.ALUHS++
	default:
		s.res.Mix.ALULS++
	}
}
