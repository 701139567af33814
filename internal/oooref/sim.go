package oooref

import (
	"fmt"

	"redsoc/internal/alu"
	"redsoc/internal/core"
	"redsoc/internal/isa"
	"redsoc/internal/mem"
	"redsoc/internal/obs"
	"redsoc/internal/ooo"
	"redsoc/internal/predict"
	"redsoc/internal/timing"
)

// Simulator executes one Program on one core configuration. Create a fresh
// Simulator per run; it is not reusable or safe for concurrent use.
type Simulator struct {
	cfg    ooo.Config
	clock  timing.Clock
	prog   *isa.Program
	memory *mem.Memory
	hier   *mem.Hierarchy

	widthPred  *predict.WidthPredictor
	lastPred   *predict.LastArrivalPredictor
	branchPred *predict.BranchPredictor
	estimator  *core.Estimator
	arbiter    *core.Arbiter
	params     core.Params

	// redirect, when set, is a mispredicted branch: dispatch is stalled
	// until it resolves and the front end refills.
	redirect *entry

	// obs, when set, receives structured sub-cycle pipeline events. Every
	// emission is behind an `if s.obs != nil` guard (enforced by the
	// obszeroalloc analyzer), so the disabled path costs one branch.
	obs obs.Sink

	rat      [isa.NumRenamedRegs]*entry
	archRegs [isa.NumRenamedRegs]alu.Value

	rob entryRing // FIFO, head first
	rs  []*entry  // dispatch order (ascending seq)
	lsq entryRing // memory ops, dispatch order

	// arena recycles retired entries (see arena.go); ready is the scheduler's
	// wakeup set — the only entries issue examines — kept sorted ascending by
	// seq so events are emitted in the same order the old full-RS scan
	// produced. wakeBuf collects entries woken since the last merge (producer
	// broadcasts, store commits, fresh dispatches); readyScratch is the merge
	// target, swapped with ready each merge so neither list reallocates in
	// steady state.
	arena        entryArena
	ready        []*entry
	wakeBuf      []*entry
	readyScratch []*entry

	// Reusable issue-path scratch: per-FU request lists, the arbiter request
	// view, the seq-ordered grant list, the per-pool win flags for select
	// observability, and the rename/training candidate indices.
	reqs    [numFUKinds][]issueReq
	arb     []core.Request
	granted []issueReq
	won     []bool
	cands   []int

	fus [numFUKinds]*fuPool

	// headWait accumulates commit-blocking cycles per op class ([1] = head
	// not yet issued); capture materializes it into Result.HeadWait. The old
	// map-with-concatenated-key accounting allocated a string per blocked
	// cycle in the hot loop.
	headWait [isa.NumClasses][2]int64

	pc      int // trace cursor
	nextSeq int64

	// audit holds the runtime invariant checker; it is a no-op struct unless
	// the binary is built with -tags redsoc_audit.
	audit auditState

	res Result
}

// New builds a simulator for the program under the configuration. It
// refuses a configuration outside the reference's scope (see the package
// comment).
func New(cfg ooo.Config, prog *isa.Program) (*Simulator, error) {
	if err := checkScope(cfg); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	clock, err := timing.NewClock(cfg.PrecisionBits)
	if err != nil {
		return nil, err
	}
	params := core.Params{}
	if cfg.Policy == ooo.PolicyRedsoc {
		params = cfg.Redsoc
	}
	lut := timing.NewLUT(clock)
	wp := predict.NewWidthPredictor(cfg.WidthPredictorEntries, predict.DefaultConfidenceBits)
	s := &Simulator{
		cfg:        cfg,
		clock:      clock,
		prog:       prog,
		memory:     mem.NewMemoryFrom(prog.Mem),
		hier:       mem.NewHierarchy(cfg.Mem),
		widthPred:  wp,
		lastPred:   predict.NewLastArrivalPredictor(cfg.LastArrivalEntries),
		branchPred: predict.NewBranchPredictor(predict.DefaultBranchEntries, predict.DefaultHistoryBits),
		estimator:  core.NewEstimator(lut, wp, estimatorParams(cfg, clock)),
		arbiter:    core.NewArbiter(cfg.Policy == ooo.PolicyRedsoc && params.SkewedSelect),
		params:     params,
	}
	s.rob = newEntryRing(cfg.ROBSize)
	s.lsq = newEntryRing(cfg.LSQSize)
	s.fus[fuALU] = newFUPool(cfg.NumALU)
	s.fus[fuSIMD] = newFUPool(cfg.NumSIMD)
	s.fus[fuFP] = newFUPool(cfg.NumFP)
	s.fus[fuMEM] = newFUPool(cfg.NumMemPorts)
	s.res.Config = cfg
	s.res.Sequences = core.NewSeqTracker()
	return s, nil
}

// estimatorParams: the baseline core does not carry slack hardware, but the
// estimator still runs (to classify ops for Fig. 10 and to feed MOS fusion
// windows); width prediction is only meaningful under ReDSOC.
func estimatorParams(cfg ooo.Config, clock timing.Clock) core.Params {
	if cfg.Policy == ooo.PolicyRedsoc {
		return cfg.Redsoc
	}
	p := core.DefaultParams(clock)
	p.Recycle = false
	p.EGPW = false
	p.WidthPrediction = cfg.Policy == ooo.PolicyMOS // MOS needs width estimates too
	return p
}

// Run simulates to completion and returns the results.
func (s *Simulator) Run() (*Result, error) {
	limit := s.cfg.MaxCycles
	if limit == 0 {
		limit = 64*int64(len(s.prog.Instrs)) + 100000
	}
	for cycle := int64(0); ; cycle++ {
		if cycle > limit {
			return nil, fmt.Errorf("ooo: %s/%s exceeded %d cycles at seq %d (rob %d, rs %d) — deadlock?",
				s.cfg.Name, s.cfg.Policy, limit, s.nextSeq, s.rob.len(), len(s.rs))
		}
		if s.step(cycle) {
			s.res.Cycles = cycle
			break
		}
	}
	s.capture()
	return &s.res, nil
}

// step advances the pipeline one cycle and reports whether the program
// drained. It is split out of Run so white-box tests (the steady-state
// allocation test in particular) can drive a warm simulator cycle by cycle.
//
//redsoc:hotpath
func (s *Simulator) step(cycle int64) (done bool) {
	s.commit(cycle)
	if s.pc >= len(s.prog.Instrs) && s.rob.len() == 0 {
		return true
	}
	s.dispatch(cycle)
	s.issue(cycle)
	return false
}

// commit retires completed instructions in order, up to the front-end width.
//
//redsoc:hotpath
func (s *Simulator) commit(cycle int64) {
	now := s.clock.CycleStart(cycle)
	for n := 0; n < s.cfg.FrontEndWidth && s.rob.len() > 0; n++ {
		e := s.rob.front()
		if e.state != stIssued || e.sched.Comp > now {
			if n == 0 && s.rob.len() >= s.cfg.ROBSize {
				slot := 0
				if e.state != stIssued {
					slot = 1
				}
				s.headWait[e.in.Op.Class()][slot]++
			}
			return
		}
		in := e.in
		if e.isStore {
			if in.Src3.IsVec() {
				s.memory.Write128(in.Addr, e.result.Lo, e.result.Hi)
			} else {
				s.memory.Write64(in.Addr, e.result.Lo)
			}
		}
		if d := in.DestReg(); d.Valid() {
			s.writeArch(d, e)
		}
		if in.SetFlags && !in.Op.WritesFlags() {
			s.writeArch(isa.Flags, e)
		}
		if !e.extended {
			s.res.Sequences.Record(int(e.chainLen))
		}
		if s.obs != nil {
			s.obs.Emit(obs.Event{Kind: obs.KindCommit, Cycle: cycle, Seq: e.seq, Op: in.Op, PC: in.PC, FU: uint8(e.fu), Unit: -1})
		}
		e.state = stCommitted
		s.rob.popFront()
		if e.isLoad || e.isStore {
			// Memory ops leave the LSQ at commit; in-order commit keeps the
			// LSQ head aligned (asserted by the audit build).
			s.audit.onCommitMem(s, e, s.lsq.front())
			s.lsq.popFront()
		}
		if e.isStore {
			// Loads blocked on this store's memory dependence become
			// schedulable the moment it retires; commit runs before issue, so
			// the wake is visible the same cycle — matching the old full-RS
			// scan's view of dep.state.
			s.wakeWaiters(e)
		}
		s.res.Instructions++
		// Drop e's outgoing references and recycle it (or park it on its
		// refcount if a younger consumer, or the redirect, still points here).
		s.releaseRefs(e)
		if e.refs == 0 {
			s.arena.put(e)
		}
	}
}

// writeArch retires a destination into architectural state and releases the
// RAT mapping if it still points at this entry.
//
//redsoc:hotpath
func (s *Simulator) writeArch(d isa.Reg, e *entry) {
	idx := d.RenameIndex()
	if d.IsFlags() {
		s.archRegs[idx] = e.flagsOut.Pack()
	} else {
		s.archRegs[idx] = e.result
	}
	if s.rat[idx] == e {
		s.rat[idx] = nil
	}
}

// RedirectPenalty is the front-end refill time, in cycles, after a
// mispredicted branch resolves.
const RedirectPenalty = 2

// dispatch renames and inserts instructions from the trace, up to the
// front-end width, while ROB/RSE/LSQ space lasts. A pending mispredicted
// branch stalls dispatch until it resolves plus the refill penalty — so a
// branch whose compare chain finishes earlier (e.g. via slack recycling)
// redirects the front end earlier.
//
//redsoc:hotpath
func (s *Simulator) dispatch(cycle int64) {
	if s.redirect != nil {
		e := s.redirect
		if e.state == stWaiting {
			s.res.StallRedirect++
			return
		}
		resume := s.clock.CycleOf(s.clock.CeilCycle(e.sched.Comp)) + RedirectPenalty
		if cycle < resume {
			s.res.StallRedirect++
			return
		}
		s.redirect = nil
		s.release(e)
	}
	for n := 0; n < s.cfg.FrontEndWidth && s.pc < len(s.prog.Instrs); n++ {
		if s.rob.len() >= s.cfg.ROBSize {
			s.res.StallROB++
			return
		}
		if len(s.rs) >= s.cfg.RSESize {
			s.res.StallRSE++
			return
		}
		in := &s.prog.Instrs[s.pc]
		isMem := in.Op.IsMem()
		if isMem && s.lsq.len() >= s.cfg.LSQSize {
			s.res.StallLSQ++
			return
		}
		s.pc++

		e := s.arena.get()
		e.in = in
		e.seq = s.nextSeq
		e.broadcastCycle = -1
		e.lastIdx = -1
		e.isLoad = in.Op == isa.OpLDR
		e.isStore = in.Op == isa.OpSTR
		e.fu = fuKindOf(in.Op.Class())
		s.nextSeq++
		e.est = s.estimator.Estimate(in)
		e.exTicks = e.est.ExTicks

		s.rename(e)
		s.linkMemDep(e)
		s.watchWakeups(e)

		// Destination renaming (including the implicit flags destination).
		if d := in.DestReg(); d.Valid() {
			s.rat[d.RenameIndex()] = e
		}
		if in.SetFlags && !in.Op.WritesFlags() {
			s.rat[isa.Flags.RenameIndex()] = e
		}

		s.rob.push(e)
		s.rs = append(s.rs, e) //lint:allow schedalloc amortized: rs grows to window occupancy once, then appends into warm capacity
		if isMem {
			s.lsq.push(e)
		}
		if s.obs != nil {
			// Decode-time slack-bucket assignment: the LUT address the
			// estimate was read from and the bucketed EX-TIME in ticks.
			s.obs.Emit(obs.Event{Kind: obs.KindDispatch, Cycle: cycle, Seq: e.seq, Op: in.Op,
				PC: in.PC, FU: uint8(e.fu), Unit: -1, Arg: int64(e.est.Addr), Start: e.exTicks})
		}
		if in.Op == isa.OpB && s.branchPred.Update(in.PC, in.Taken) {
			// Mispredicted: everything younger is a front-end bubble until
			// this branch resolves. The redirect reference can outlive the
			// branch's commit (dispatch reads its schedule while refilling),
			// so it participates in the arena refcount.
			s.redirect = e
			retain(e)
			if s.obs != nil {
				s.obs.Emit(obs.Event{Kind: obs.KindRedirect, Cycle: cycle, Seq: e.seq, Op: in.Op, PC: in.PC, FU: uint8(e.fu), Unit: -1})
			}
			return
		}
	}
}

// rename resolves the entry's sources against the RAT and picks the
// predicted last-arriving parent and its grandparent tag (Operational
// design: the grandparent tag travels parent→child through the RAT).
//
//redsoc:hotpath
func (s *Simulator) rename(e *entry) {
	e.iSrc1, e.iSrc2, e.iSrc3, e.iFlags = -1, -1, -1, -1
	addSrc := func(r isa.Reg) int8 {
		ref := srcRef{reg: r}
		idx := r.RenameIndex()
		if p := s.rat[idx]; p != nil {
			ref.producer = p
			retain(p)
		} else {
			ref.value = s.archRegs[idx]
		}
		e.srcs[e.nsrc] = ref
		e.nsrc++
		return int8(e.nsrc - 1)
	}
	in := e.in
	if in.Src1 != isa.RegNone {
		e.iSrc1 = addSrc(in.Src1)
	}
	if in.Src2 != isa.RegNone {
		e.iSrc2 = addSrc(in.Src2)
	}
	if in.Src3 != isa.RegNone {
		e.iSrc3 = addSrc(in.Src3)
	}
	if in.Op.ReadsCarry() {
		e.iFlags = addSrc(isa.Flags)
	}

	// Find in-flight producers (s.cands is reusable scratch).
	cands := s.cands[:0]
	for i := 0; i < e.nsrc; i++ {
		if e.srcs[i].producer != nil {
			cands = append(cands, i)
		}
	}
	s.cands = cands
	switch len(cands) {
	case 0:
		// All operands ready at rename.
	case 1:
		e.lastIdx = cands[0]
	default:
		e.multiSrc = true
		pi := s.lastPred.Predict(in.PC)
		if pi >= len(cands) {
			pi = len(cands) - 1
		}
		e.lastIdx = cands[pi]
	}
	if e.lastIdx >= 0 {
		p := e.srcs[e.lastIdx].producer
		if p.lastIdx >= 0 {
			// The grandparent may already have committed; p's own source
			// reference pins it until p retires, and e's retain extends that
			// across e's lifetime (the recycle-safety rule in arena.go).
			e.gp = p.srcs[p.lastIdx].producer
			if e.gp != nil {
				retain(e.gp)
			}
		}
	}
}

// wake queues a waiting entry for the scheduler's next wakeup scan; the
// inReady flag makes it idempotent while the entry is already in the ready
// set or the pending buffer.
//
//redsoc:hotpath
func (s *Simulator) wake(e *entry) {
	if e.state == stWaiting && !e.inReady {
		e.inReady = true
		s.wakeBuf = append(s.wakeBuf, e) //lint:allow schedalloc amortized: wakeBuf peaks at ready-set size early in the run, then stays warm
	}
}

// wakeWaiters fires e's consumer list: every waiting entry that registered on
// e's tag at dispatch re-enters the ready set.
//
//redsoc:hotpath
func (s *Simulator) wakeWaiters(e *entry) {
	for _, w := range e.waiters {
		s.wake(w)
	}
}

// watchWakeups registers a freshly dispatched entry on the consumer list of
// every event that can make it schedulable: each in-flight producer's
// broadcast, the grandparent's broadcast (the EGPW trigger — specEligible
// entries "ride the grandparent's list"), and the blocking store's commit for
// loads. The entry itself starts in the ready set so the same-cycle
// examination the old full-RS scan performed still happens; entries whose
// remaining obstacle emits no broadcast (issue-window eligibility) simply
// stay in the set — see the keep rule in issue.
//
//redsoc:hotpath
func (s *Simulator) watchWakeups(e *entry) {
	for i := 0; i < e.nsrc; i++ {
		if p := e.srcs[i].producer; p != nil && p.broadcastCycle < 0 {
			p.waiters = append(p.waiters, e) //lint:allow schedalloc amortized: waiters backing arrays survive arena recycling (see entryArena.put), so appends reuse warm capacity
		}
	}
	if gp := e.gp; gp != nil && gp.broadcastCycle < 0 {
		gp.waiters = append(gp.waiters, e) //lint:allow schedalloc amortized: waiters backing arrays survive arena recycling, so appends reuse warm capacity
	}
	if len(e.memDeps) > 0 {
		dep := e.memDeps[0]
		dep.waiters = append(dep.waiters, e) //lint:allow schedalloc amortized: waiters backing arrays survive arena recycling, so appends reuse warm capacity
	}
	s.wake(e)
}

// linkMemDep points a load at the youngest older overlapping store still in
// the LSQ. Addresses are exact in trace form, so this is perfect (oracle)
// memory disambiguation; the latency rules still respect store completion.
//
//redsoc:hotpath
func (s *Simulator) linkMemDep(e *entry) {
	if !e.isLoad {
		return
	}
	lo, hi := addrRange(e.in)
	for i := s.lsq.len() - 1; i >= 0; i-- {
		st := s.lsq.at(i)
		if !st.isStore {
			continue
		}
		sLo, sHi := addrRange(st.in)
		if rangesOverlap(lo, hi, sLo, sHi) {
			e.memDeps = append(e.memDeps, st) //lint:allow schedalloc amortized: memDeps backing arrays survive arena recycling, so appends reuse warm capacity
			retain(st)
			return
		}
	}
}

// forwardable reports whether the load can take its value straight from the
// store's queue entry (the store's data covers the load's range).
//
//redsoc:hotpath
func forwardable(st, ld *entry) bool {
	sLo, sHi := addrRange(st.in)
	lLo, lHi := addrRange(ld.in)
	return sLo <= lLo && lHi <= sHi
}

// capture snapshots final architectural state for equivalence checks.
func (s *Simulator) capture() {
	s.res.FinalRegs = make(map[isa.Reg]alu.Value)
	for i := 0; i < isa.NumIntRegs; i++ {
		s.res.FinalRegs[isa.R(i)] = s.archRegs[isa.R(i).RenameIndex()]
	}
	for i := 0; i < isa.NumVecRegs; i++ {
		s.res.FinalRegs[isa.V(i)] = s.archRegs[isa.V(i).RenameIndex()]
	}
	s.res.FinalFlags = alu.UnpackFlags(s.archRegs[isa.Flags.RenameIndex()])
	s.res.FinalMem = s.memory.Snapshot()
	s.res.WidthPredictor = s.widthPred.Stats()
	s.res.LastArrival = s.lastPred.Stats()
	s.res.Branches = s.branchPred.Stats()
	s.res.MemStats = s.hier.Stats()
	for c := range s.headWait {
		issued, unissued := s.headWait[c][0], s.headWait[c][1]
		if issued == 0 && unissued == 0 {
			continue
		}
		if s.res.HeadWait == nil {
			s.res.HeadWait = make(map[string]int64)
		}
		name := isa.Class(c).String()
		if issued != 0 {
			s.res.HeadWait[name] += issued
		}
		if unissued != 0 {
			s.res.HeadWait[name+"/unissued"] += unissued
		}
	}
	s.res.FinalThreshold = s.params.ThresholdTicks
}

// Clock exposes the simulator's clock (for harness reporting).
func (s *Simulator) Clock() timing.Clock { return s.clock }

// Run is a convenience: build and run in one call.
func Run(cfg ooo.Config, prog *isa.Program) (*Result, error) {
	s, err := New(cfg, prog)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
