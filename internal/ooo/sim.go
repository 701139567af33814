package ooo

import (
	"context"
	"errors"
	"fmt"

	"redsoc/internal/alu"
	"redsoc/internal/core"
	"redsoc/internal/fault"
	"redsoc/internal/isa"
	"redsoc/internal/mem"
	"redsoc/internal/obs"
	"redsoc/internal/predict"
	"redsoc/internal/timing"
	"redsoc/internal/trace"
)

// Simulator executes one Program on one core configuration. Create a fresh
// Simulator per run: Run may be called once (a second call returns an error),
// and a Simulator is not safe for concurrent use. The
// program's static facts are read through a shared, immutable trace.Decoded
// view (built once per program, cached across simulations), and all dynamic
// per-instruction state lives in a dense entry slab addressed by int32
// indices — see arena.go.
type Simulator struct {
	cfg    Config
	clock  timing.Clock
	prog   *isa.Program
	dec    *trace.Decoded
	memory *mem.Memory
	hier   *mem.Hierarchy

	lut        *timing.LUT
	widthPred  *predict.WidthPredictor
	lastPred   *predict.LastArrivalPredictor
	branchPred *predict.BranchPredictor
	estimator  *core.Estimator
	arbiter    *core.Arbiter
	// params are the slack parameters the scheduler's eligibility logic runs
	// with: the configured ones under ReDSOC, all zero otherwise. Only the
	// ReDSOC-only adapt controller changes them during a run.
	params core.Params

	// The policy's table row, resolved at New (policy.go): allTags makes
	// every wakeup monitor all parent tags (every design but ReDSOC's
	// Operational one), specLSQ turns on speclsq.go's LSQ bets and fuse
	// mos.go's fusion.
	allTags, specLSQ, fuse bool

	// loadPred is the real-time load-delay tracker; non-nil only under
	// PolicyLoadDelay, where loads broadcast completion instants built from
	// their tracked delay instead of the resolved cache latency
	// (loaddelay.go).
	loadPred *predict.LoadDelayTracker

	// redirect, when set (!= none), is a mispredicted branch: dispatch is
	// stalled until it resolves and the front end refills.
	redirect int32

	// inject, when set, perturbs estimates, delays, latch timing and
	// predictor state at the configured per-op rates; degr holds one
	// graceful-degradation controller per transparent-capable FU pool
	// (nil entries never degrade).
	inject  *fault.Injector
	degr    [numFUKinds]*fault.Degrader
	anyDegr bool // any pool has a controller; gates the per-cycle tick

	// adapt drives the optional dynamic slack-threshold controller.
	adapt *core.ThresholdController
	// cpm drives the optional PVT guard-band recalibration.
	cpm *timing.CPM
	// obs, when set, receives structured sub-cycle pipeline events. Every
	// emission is behind an `if s.obs != nil` guard (enforced by the
	// obszeroalloc analyzer), so the disabled path costs one branch.
	obs obs.Sink
	// lock, when set, steps the architectural interpreter beside commit and
	// stops the run at the first commit that differs (final.go).
	lock *lockstep

	// store is the borrowed machine storage behind memory, hier, scratch,
	// delays and the predictors; Run returns it to the spare list and nils
	// every field that reaches it (arena.go).
	store *storage
	// scratch is the scheduler's per-run working storage, the dense entry
	// slab among it (arena.go).
	scratch
	// delays counts single-cycle ops by actual delay; capture compacts it
	// into Result.DelayHistogram.
	delays *delayCounts

	// rat is the R10K-style map table from architectural rename index to the
	// slab index of the youngest in-flight producer (none = committed state
	// in archRegs).
	rat      [isa.NumRenamedRegs]int32
	archRegs [isa.NumRenamedRegs]alu.Value

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

	// res is allocated apart from the simulator, so a Result a caller
	// retains does not pin the slab, memory image and predictor tables.
	res *Result
}

// New builds a simulator for the program under the configuration.
func New(cfg Config, prog *isa.Program) (*Simulator, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	clock, err := timing.NewClock(cfg.PrecisionBits)
	if err != nil {
		return nil, err
	}
	ps := &policies[cfg.Policy]
	params, estParams := ps.params(cfg, clock)
	lut := timing.NewLUT(clock)
	dec := trace.DecodeCached(prog)
	st := borrowStorage(cfg, dec.Image)
	s := &Simulator{
		cfg:        cfg,
		clock:      clock,
		prog:       prog,
		dec:        dec,
		store:      st,
		memory:     st.memory,
		hier:       st.hier,
		scratch:    st.scratch,
		delays:     &st.delays,
		lut:        lut,
		widthPred:  st.widthPred,
		lastPred:   st.lastPred,
		branchPred: st.branchPred,
		estimator:  core.NewEstimator(lut, st.widthPred, estParams),
		arbiter:    core.NewArbiter(params.SkewedSelect),
		params:     params,
		allTags:    !ps.recycles || params.Design == core.Illustrative,
		specLSQ:    ps.specLSQ,
		fuse:       ps.fuses,
		redirect:   none,
	}
	if ps.tracksLoadDelay {
		s.loadPred = st.loadPred
	}
	for i := range s.rat {
		s.rat[i] = none
	}
	if params.DynamicThreshold {
		s.adapt = core.NewThresholdController(params.ThresholdTicks, clock.TicksPerCycle())
	}
	s.inject = fault.NewInjector(cfg.Fault)
	if params.Recycle && cfg.Degrade.Enable {
		// Only the transparent-capable pools can recycle slack, so only they
		// have a baseline to degrade to.
		s.degr[fuALU] = fault.NewDegrader(cfg.Degrade)
		s.degr[fuSIMD] = fault.NewDegrader(cfg.Degrade)
		s.anyDegr = true
	}
	if cfg.PVT.Enable {
		s.cpm = timing.NewCPM(cfg.PVT, lut)
	}
	s.res = &Result{Config: cfg, Sequences: core.NewSeqTracker()}
	if s.audit.Enabled() {
		s.armLockstep()
	}
	return s, nil
}

// in resolves an entry's trace instruction (cold paths: functional execution
// and width-prediction validation).
//
//redsoc:hotpath
func (s *Simulator) in(e *entry) *isa.Instruction { return &s.prog.Instrs[e.ti] }

// Run simulates to completion and returns the results; see RunContext.
func (s *Simulator) Run() (*Result, error) { return s.RunContext(context.Background()) }

// ctxPollCycles is how many cycles RunContext simulates between two checks
// of its context: often enough that a cancelled run stops within a few
// milliseconds, rarely enough that the check costs nothing measurable.
const ctxPollCycles = 4096

// RunContext simulates to completion and returns the results, or stops
// early with an error wrapping ctx's error once ctx ends (it polls ctx at
// cycle 0 and every ctxPollCycles cycles after). It returns the simulator's
// machine storage to the spare list for the next New, so it runs once: a
// second call returns an error and leaves the first Result untouched.
func (s *Simulator) RunContext(ctx context.Context) (*Result, error) {
	if s.store == nil {
		return nil, errors.New("ooo: Simulator.Run called again; a Simulator runs once")
	}
	defer s.releaseStorage()
	limit := s.cfg.MaxCycles
	if limit == 0 {
		limit = 64*int64(len(s.prog.Instrs)) + 100000
	}
	for cycle := int64(0); ; cycle++ {
		if cycle%ctxPollCycles == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("%s: stopped at cycle %d: %w", s.name(), cycle, err)
			}
		}
		if cycle > limit {
			return nil, fmt.Errorf("ooo: %s/%s exceeded %d cycles at seq %d (rob %d, rs %d) — deadlock?",
				s.cfg.Name, s.cfg.Policy, limit, s.nextSeq, s.rob.len(), len(s.rs))
		}
		if s.step(cycle) {
			s.res.Cycles = cycle
			break
		}
	}
	if s.lock != nil && s.lock.bad.what != "" {
		return nil, s.lock.err(s)
	}
	if err := s.capture(ctx); err != nil {
		return nil, err
	}
	return s.res, nil
}

// step advances the pipeline one cycle and reports whether the program
// drained. It is split out of Run so white-box tests (the steady-state
// allocation test in particular) can drive a warm simulator cycle by cycle.
//
//redsoc:hotpath
func (s *Simulator) step(cycle int64) (done bool) {
	s.commit(cycle)
	if s.pc >= len(s.prog.Instrs) && s.rob.len() == 0 || s.lock != nil && s.lock.bad.what != "" {
		return true
	}
	if s.cpm != nil && s.cpm.Tick(cycle) {
		s.res.PVTRecalibrations++
	}
	s.dispatch(cycle)
	s.issue(cycle)
	s.tickDegraders(cycle)
	if s.adapt != nil && s.adapt.Observe(cycle, s.res.RecycledOps, s.res.FUStallCycles) {
		s.params.ThresholdTicks = s.adapt.Threshold()
		s.res.ThresholdAdjustments++
	}
	return false
}

// tickDegraders advances each pool's graceful-degradation controller one
// cycle and accounts transitions and degraded residency.
//
//redsoc:hotpath
func (s *Simulator) tickDegraders(cycle int64) {
	if !s.anyDegr {
		// No pool has a controller (nil Degraders never trip, rearm, or
		// degrade), so the whole stage is a no-op — skip the per-pool calls.
		return
	}
	any := false
	for k := range s.degr {
		tripped, rearmed := s.degr[k].Tick(cycle)
		if tripped {
			s.res.DegradationEvents++
			if s.obs != nil {
				s.obs.Emit(obs.Event{Kind: obs.KindDegrade, Cycle: cycle, Seq: -1, FU: uint8(k), Unit: -1})
			}
		}
		if rearmed {
			s.res.DegradeRearms++
			if s.obs != nil {
				s.obs.Emit(obs.Event{Kind: obs.KindRearm, Cycle: cycle, Seq: -1, FU: uint8(k), Unit: -1})
			}
		}
		if s.degr[k].Degraded() {
			any = true
		}
	}
	if any {
		s.res.DegradedCycles++
	}
}

// commit retires completed instructions in order, up to the front-end width.
//
//redsoc:hotpath
func (s *Simulator) commit(cycle int64) {
	now := s.clock.CycleStart(cycle)
	for n := 0; n < s.cfg.FrontEndWidth && s.rob.len() > 0; n++ {
		ei := s.rob.front()
		e := s.ent(ei)
		if e.state != stIssued || e.sched.Comp > now {
			if n == 0 && s.rob.len() >= s.cfg.ROBSize {
				slot := 0
				if e.state != stIssued {
					slot = 1
				}
				s.headWait[e.class][slot]++
			}
			return
		}
		if s.lock != nil && !s.lock.commits(s, e) {
			return
		}
		if e.isStore {
			if e.bits&trace.BitVecAccess != 0 {
				s.memory.Write128(e.addr, e.result.Lo, e.result.Hi)
			} else {
				s.memory.Write64(e.addr, e.result.Lo)
			}
		}
		if e.bits&trace.BitHasDest != 0 {
			s.writeArch(e.dest, ei, e)
		}
		if e.bits&trace.BitSetFlagsExtra != 0 {
			s.writeArch(flagsRenameIdx, ei, e)
		}
		if !e.extended {
			s.res.Sequences.Record(int(e.chainLen))
		}
		if s.obs != nil {
			s.obs.Emit(obs.Event{Kind: obs.KindCommit, Cycle: cycle, Seq: e.seq, Op: e.op, PC: e.pc, FU: uint8(e.fu), Unit: -1})
		}
		e.state = stCommitted
		s.rob.popFront()
		if e.isLoad || e.isStore {
			// Memory ops leave the LSQ at commit; in-order commit keeps the
			// LSQ head aligned (asserted by the audit build).
			s.audit.onCommitMem(s, ei, s.lsq.front())
			s.lsq.popFront()
		}
		if e.isStore {
			s.storeQ.popFront()
			// Loads blocked on this store's memory dependence become
			// schedulable the moment it retires; commit runs before issue, so
			// the wake is visible the same cycle — matching the old full-RS
			// scan's view of dep.state.
			s.wakeWaiters(e)
		}
		s.res.Instructions++
		// Drop e's outgoing references and recycle its slot (or park it on its
		// refcount if a younger consumer, or the redirect, still points here).
		s.releaseRefs(e)
		if e.refs == 0 {
			s.freeEntry(ei)
		}
	}
}

// writeArch retires a destination into architectural state and releases the
// map-table slot if it still points at this entry.
//
//redsoc:hotpath
func (s *Simulator) writeArch(idx uint8, ei int32, e *entry) {
	if idx == flagsRenameIdx {
		s.archRegs[idx] = e.flagsOut.Pack()
	} else {
		s.archRegs[idx] = e.result
	}
	if s.rat[idx] == ei {
		s.rat[idx] = none
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
	if s.redirect != none {
		e := s.ent(s.redirect)
		if e.state == stWaiting {
			s.res.StallRedirect++
			return
		}
		resume := s.clock.CycleOf(s.clock.CeilCycle(e.sched.Comp)) + RedirectPenalty
		if cycle < resume {
			s.res.StallRedirect++
			return
		}
		ri := s.redirect
		s.redirect = none
		s.release(ri)
	}
	dec := s.dec
	for n := 0; n < s.cfg.FrontEndWidth && s.pc < dec.Len(); n++ {
		if s.rob.len() >= s.cfg.ROBSize {
			s.res.StallROB++
			return
		}
		if len(s.rs) >= s.cfg.RSESize {
			s.res.StallRSE++
			return
		}
		ti := int32(s.pc)
		in := &s.prog.Instrs[ti]
		bits := dec.Bits[ti]
		isMem := bits&trace.BitMem != 0
		if isMem && s.lsq.len() >= s.cfg.LSQSize {
			s.res.StallLSQ++
			return
		}
		s.pc++

		ei := s.alloc()
		e := s.ent(ei)
		e.ti = ti
		e.seq = s.nextSeq
		e.op = in.Op
		e.class = dec.Class[ti]
		e.bits = bits
		e.dest = dec.Dest[ti]
		e.pc = in.PC
		e.addr = in.Addr
		e.addrLo, e.addrHi = trace.AddrRange(in.Addr, bits)
		e.broadcastCycle = -1
		e.lastIdx = -1
		e.gp = none
		e.memDep = none
		e.isLoad = bits&trace.BitLoad != 0
		e.isStore = bits&trace.BitStore != 0
		e.fu = fuKind(dec.Pool[ti])
		s.nextSeq++
		// Predictor faults corrupt shared table state before this op reads
		// it, so the op itself can observe the corruption; the ordinary
		// width-replay and tag-validation machinery recovers from both.
		if s.inject != nil && s.inject.PredictorFault() {
			s.widthPred.Poison(in.PC, isa.Width8)
			s.lastPred.Flip(in.PC)
		}
		e.est = s.estimator.Estimate(in)
		e.exTicks = e.est.ExTicks
		// Estimate faults model an optimistic slack-LUT bucket: the tabulated
		// computation time understates the true circuit, so a transparent
		// schedule built on it completes before the value is stable.
		if s.inject != nil && bits&trace.BitSingleCycle != 0 {
			if shrink, ok := s.inject.EstimateFault(); ok {
				e.exTicks = s.lut.OptimisticCompTicks(e.est.Addr, shrink)
				e.faulted |= fault.BitEstimate
			}
		}

		s.rename(ei, e)
		s.linkMemDep(e)
		s.watchWakeups(ei, e)

		// Destination renaming (including the implicit flags destination).
		if bits&trace.BitHasDest != 0 {
			s.rat[e.dest] = ei
		}
		if bits&trace.BitSetFlagsExtra != 0 {
			s.rat[flagsRenameIdx] = ei
		}

		s.rob.push(ei)
		e.rsSlot = int32(len(s.rs))
		s.rs = append(s.rs, ei) //lint:allow hotpath amortized: rs grows to window occupancy once, then appends into warm capacity
		if isMem {
			s.lsq.push(ei)
			if e.isStore {
				s.storeQ.push(ei)
			}
		}
		if s.obs != nil {
			// Decode-time slack-bucket assignment: the LUT address the
			// estimate was read from and the bucketed EX-TIME in ticks.
			s.obs.Emit(obs.Event{Kind: obs.KindDispatch, Cycle: cycle, Seq: e.seq, Op: e.op,
				PC: e.pc, FU: uint8(e.fu), Unit: -1, Arg: int64(e.est.Addr), Start: e.exTicks})
		}
		if bits&trace.BitBranch != 0 && s.branchPred.Update(e.pc, bits&trace.BitTaken != 0) {
			// Mispredicted: everything younger is a front-end bubble until
			// this branch resolves. The redirect reference can outlive the
			// branch's commit (dispatch reads its schedule while refilling),
			// so it participates in the slab refcount.
			s.redirect = ei
			s.retain(ei)
			if s.obs != nil {
				s.obs.Emit(obs.Event{Kind: obs.KindRedirect, Cycle: cycle, Seq: e.seq, Op: e.op, PC: e.pc, FU: uint8(e.fu), Unit: -1})
			}
			return
		}
	}
}

// rename resolves the entry's sources against the map table and picks the
// predicted last-arriving parent and its grandparent tag (Operational
// design: the grandparent tag travels parent→child through the map table).
// The source rename indices and operand-role mapping come straight from the
// flat decode's columns — no per-dispatch re-derivation from the
// instruction encoding.
//
//redsoc:hotpath
func (s *Simulator) rename(ei int32, e *entry) {
	dec := s.dec
	n := int(dec.NSrc[e.ti])
	srcIdx := &dec.Srcs[e.ti]
	for k := 0; k < n; k++ {
		idx := srcIdx[k]
		ref := srcRef{idx: idx, prod: none}
		if p := s.rat[idx]; p != none {
			ref.prod = p
			s.retain(p)
		} else {
			ref.value = s.archRegs[idx]
		}
		e.srcs[k] = ref
	}
	e.nsrc = uint8(n)
	roles := &dec.Roles[e.ti]
	e.iSrc1, e.iSrc2, e.iSrc3, e.iFlags = roles[0], roles[1], roles[2], roles[3]

	// Find in-flight producers (s.cands is reusable scratch).
	cands := s.cands[:0]
	for i := 0; i < n; i++ {
		if e.srcs[i].prod != none {
			cands = append(cands, i)
		}
	}
	s.cands = cands
	switch len(cands) {
	case 0:
		// All operands ready at rename.
	case 1:
		e.lastIdx = int8(cands[0])
	default:
		e.multiSrc = true
		pi := s.lastPred.Predict(e.pc)
		if pi >= len(cands) {
			pi = len(cands) - 1
		}
		e.lastIdx = int8(cands[pi])
	}
	if e.lastIdx >= 0 {
		p := s.ent(e.srcs[e.lastIdx].prod)
		if p.lastIdx >= 0 {
			// The grandparent may already have committed; p's own source
			// reference pins its slot until p retires, and e's retain extends
			// that across e's lifetime (the recycle-safety rule in arena.go).
			if gp := p.srcs[p.lastIdx].prod; gp != none {
				e.gp = gp
				s.retain(gp)
			}
		}
	}
}

// wake queues a waiting entry for the scheduler's next wakeup scan; the
// inReady flag makes it idempotent while the entry is already in the ready
// set or the pending buffer.
//
//redsoc:hotpath
func (s *Simulator) wake(ei int32) {
	e := s.ent(ei)
	if e.state == stWaiting && !e.inReady {
		e.inReady = true
		s.wakeBuf = append(s.wakeBuf, ei) //lint:allow hotpath amortized: wakeBuf peaks at ready-set size early in the run, then stays warm
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

// egpwCandidate reports whether the entry can ever place or hold an EGPW
// request: the shared precondition of specEligible and specPending (ReDSOC
// with EGPW and recycling on, single-cycle op). Only such entries gain
// anything from their grandparent's broadcast.
//
//redsoc:hotpath
func (s *Simulator) egpwCandidate(e *entry) bool {
	return s.params.EGPW && s.params.Recycle && e.bits&trace.BitSingleCycle != 0
}

// watchWakeups registers a freshly dispatched entry on the consumer list of
// every event that can make it schedulable — each in-flight producer's
// broadcast, the blocking store's broadcast and commit for loads and, for
// EGPW candidates only, the grandparent's broadcast (speculative children
// "ride the grandparent's list"; no other entry can act on that tag) — and
// seeds the ready set only if the entry might be schedulable already. An
// entry whose predicted last-arriving producer has not broadcast fails
// trackedReady under every design and is registered on that producer, so
// seeding it would buy one dead examination; the exception is an EGPW
// candidate whose grandparent has already broadcast, which may request
// speculatively this very cycle. Entries whose remaining obstacle emits no
// broadcast (degraded pools, issue-window eligibility) stay in the set once
// there — see the keep rules in issue.
//
//redsoc:hotpath
func (s *Simulator) watchWakeups(ei int32, e *entry) {
	for i := 0; i < int(e.nsrc); i++ {
		if pi := e.srcs[i].prod; pi != none {
			if p := s.ent(pi); p.broadcastCycle < 0 {
				p.waiters = append(p.waiters, ei) //lint:allow hotpath amortized: waiters backing arrays survive slab recycling (see freeEntry), so appends reuse warm capacity
			}
		}
	}
	gpAwake := false
	if e.gp != none && s.egpwCandidate(e) {
		if gp := s.ent(e.gp); gp.broadcastCycle < 0 {
			gp.waiters = append(gp.waiters, ei) //lint:allow hotpath amortized: waiters backing arrays survive slab recycling, so appends reuse warm capacity
		} else {
			gpAwake = true
		}
	}
	if e.memDep != none {
		dep := s.ent(e.memDep)
		dep.waiters = append(dep.waiters, ei) //lint:allow hotpath amortized: waiters backing arrays survive slab recycling, so appends reuse warm capacity
	}
	if e.lastIdx >= 0 && s.ent(e.srcs[e.lastIdx].prod).broadcastCycle < 0 && !gpAwake {
		return
	}
	s.wake(ei)
}

// linkMemDep points a load at the youngest older overlapping store still in
// the LSQ. Addresses are exact in trace form, so this is perfect (oracle)
// memory disambiguation; the latency rules still respect store completion.
// The scan walks the store queue — the LSQ's stores only — youngest→oldest,
// visiting exactly the candidates the old full-LSQ scan examined, minus the
// loads it skipped.
//
//redsoc:hotpath
func (s *Simulator) linkMemDep(e *entry) {
	if !e.isLoad {
		return
	}
	for i := s.storeQ.len() - 1; i >= 0; i-- {
		sti := s.storeQ.at(i)
		st := s.ent(sti)
		if rangesOverlap(e.addrLo, e.addrHi, st.addrLo, st.addrHi) {
			e.memDep = sti
			s.retain(sti)
			return
		}
	}
}

// forwardable reports whether the load can take its value straight from the
// store's queue entry (the store's data covers the load's range).
//
//redsoc:hotpath
func forwardable(st, ld *entry) bool {
	return st.addrLo <= ld.addrLo && ld.addrHi <= st.addrHi
}

// capture records the final architectural state and the end-of-run
// statistics; a fault-free run that did not end in its program's final
// state is an error (captureArch).
func (s *Simulator) capture(ctx context.Context) error {
	if err := s.captureArch(ctx); err != nil {
		return err
	}
	s.res.WidthPredictor = s.widthPred.Stats()
	s.res.LastArrival = s.lastPred.Stats()
	if s.loadPred != nil {
		s.res.LoadDelay = s.loadPred.Stats()
	}
	s.res.Branches = s.branchPred.Stats()
	s.res.MemStats = s.hier.Stats()
	s.res.DelayHistogram = s.delays.histogram()
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
	// Every other injector site nil-checks s.inject; capture must too, so a
	// configuration without an injector cannot panic at snapshot time.
	if s.inject != nil {
		s.res.FaultStats = s.inject.Stats()
	}
	return nil
}

// Clock exposes the simulator's clock (for harness reporting).
func (s *Simulator) Clock() timing.Clock { return s.clock }

// Run is a convenience: build and run in one call.
func Run(cfg Config, prog *isa.Program) (*Result, error) {
	return RunContext(context.Background(), cfg, prog)
}

// RunContext builds and runs in one call, stopping early once ctx ends
// (see Simulator.RunContext).
func RunContext(ctx context.Context, cfg Config, prog *isa.Program) (*Result, error) {
	s, err := New(cfg, prog)
	if err != nil {
		return nil, err
	}
	return s.RunContext(ctx)
}
