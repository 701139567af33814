package ooo

// Tests for the zero-alloc scheduler data structures (index ring buffers,
// entry slab + free list, tag-indexed ready set) and regression tests for the
// tryFuse / trainLastArrival / capture bugfixes that shipped with them.

import (
	"testing"

	"redsoc/internal/alu"
	"redsoc/internal/core"
	"redsoc/internal/fault"
	"redsoc/internal/isa"
	"redsoc/internal/timing"
	"redsoc/internal/trace"
	"redsoc/internal/workload"
)

func TestSeqRingWraparound(t *testing.T) {
	r := newSeqRing(4)
	next, popped := int32(0), int32(0)
	for round := 0; round < 5; round++ {
		for r.len() < 4 {
			r.push(next)
			next++
		}
		if r.front() != popped {
			t.Fatalf("round %d: front %d, want %d", round, r.front(), popped)
		}
		for i := 0; i < 3; i++ {
			if got := r.popFront(); got != popped {
				t.Fatalf("FIFO order broken: popped %d, want %d", got, popped)
			}
			popped++
		}
		for i := 0; i < r.len(); i++ {
			if got := r.at(i); got != popped+int32(i) {
				t.Fatalf("round %d: at(%d) = %d, want %d", round, i, got, popped+int32(i))
			}
		}
	}
	for r.len() > 0 {
		if got := r.popFront(); got != popped {
			t.Fatalf("drain order broken: popped %d, want %d", got, popped)
		}
		popped++
	}
}

func TestSeqRingOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("push beyond capacity must panic: dispatch bounds occupancy")
		}
	}()
	r := newSeqRing(1)
	r.push(0)
	r.push(1)
}

// TestLSQHeadAlignment drives a memory-heavy program through several LSQ
// wraparounds and checks, every cycle, the invariant the ring-buffer LSQ pop
// relies on: the LSQ head is the oldest in-flight memory op (the same entry
// the ROB will retire first among memory ops), and LSQ order is ascending.
// The store queue must mirror the LSQ's stores exactly — linkMemDep's
// store-only scan depends on it.
func TestLSQHeadAlignment(t *testing.T) {
	cfg := SmallConfig()
	b := workload.NewBuilder("lsqwrap")
	b.MovImm(isa.R(1), 7)
	for i := 0; i < 3*cfg.LSQSize; i++ {
		addr := uint64(0x100 + 8*(i%8))
		b.Store(isa.R(1), isa.R(0), addr)
		b.Load(isa.R(2), isa.R(0), addr)
		b.Op3(isa.OpEOR, isa.R(1), isa.R(1), isa.R(2))
	}
	s, err := New(cfg, b.Build())
	if err != nil {
		t.Fatal(err)
	}
	for cycle := int64(0); ; cycle++ {
		if cycle > 100000 {
			t.Fatal("runaway simulation")
		}
		if s.step(cycle) {
			break
		}
		if s.lsq.len() == 0 {
			continue
		}
		prev := int64(-1)
		stores := 0
		for i := 0; i < s.lsq.len(); i++ {
			le := s.ent(s.lsq.at(i))
			if le.seq <= prev {
				t.Fatalf("cycle %d: LSQ out of order at slot %d (seq %d after %d)", cycle, i, le.seq, prev)
			}
			prev = le.seq
			if le.isStore {
				if stores >= s.storeQ.len() || s.storeQ.at(stores) != s.lsq.at(i) {
					t.Fatalf("cycle %d: store queue diverged from the LSQ's stores at store %d", cycle, stores)
				}
				stores++
			}
		}
		if stores != s.storeQ.len() {
			t.Fatalf("cycle %d: store queue holds %d entries, LSQ holds %d stores", cycle, s.storeQ.len(), stores)
		}
		for i := 0; i < s.rob.len(); i++ {
			if ei := s.rob.at(i); s.ent(ei).isLoad || s.ent(ei).isStore {
				if ei != s.lsq.front() {
					t.Fatalf("cycle %d: LSQ head seq %d misaligned with oldest ROB memory op seq %d",
						cycle, s.ent(s.lsq.front()).seq, s.ent(ei).seq)
				}
				break
			}
		}
	}
	if s.lsq.len() != 0 || s.rob.len() != 0 || s.storeQ.len() != 0 {
		t.Fatalf("queues not drained: rob %d, lsq %d, storeQ %d", s.rob.len(), s.lsq.len(), s.storeQ.len())
	}
}

// TestSlabRefcountPinsCommittedEntries exercises the recycle-safety rule: a
// committed entry's slot stays off the free list while any younger consumer
// (or the redirect) still references it, and returns reset once the last
// reference drops.
func TestSlabRefcountPinsCommittedEntries(t *testing.T) {
	s := mkSim(t, SmallConfig())

	gi := s.alloc()
	g := s.ent(gi)
	g.waiters = append(g.waiters, gi)
	g.ti = 7
	s.retain(gi) // e.g. a parent's source reference
	s.retain(gi) // e.g. a grandchild's gp reference
	g.state = stCommitted
	s.release(gi)
	if len(s.freeList) != 0 {
		t.Fatal("entry recycled while still referenced (gp-after-commit hazard)")
	}
	s.release(gi)
	if len(s.freeList) != 1 {
		t.Fatal("entry not recycled after its last reference dropped")
	}
	ei := s.alloc()
	if ei != gi {
		t.Fatal("free list must hand back the recycled slot")
	}
	e := s.ent(ei)
	if e.state != stWaiting || e.refs != 0 || len(e.waiters) != 0 || e.ti != 0 {
		t.Fatalf("recycled entry not reset: %+v", e)
	}
	if cap(e.waiters) == 0 {
		t.Fatal("reset must keep the waiters backing array warm")
	}

	// Refcount alone never recycles: an in-flight entry with no references
	// (the common case before any consumer renames against it) stays live.
	pi := s.alloc()
	s.retain(pi)
	s.release(pi)
	if len(s.freeList) != 0 {
		t.Fatal("in-flight entry must not recycle on refcount alone")
	}
}

// TestSlabReusesEntriesAcrossRun bounds the slab's footprint after a long
// run: the free list ends up holding every slot ever allocated, so its size
// measures peak live entries — which must track core capacity, not trace
// length — and the slab must never outgrow its preallocated bound.
func TestSlabReusesEntriesAcrossRun(t *testing.T) {
	cfg := SmallConfig().WithPolicy(PolicyRedsoc)
	s, err := New(cfg, longChain(isa.OpEOR, 2000))
	if err != nil {
		t.Fatal(err)
	}
	// Drive the pipeline to drain by hand: Run hands the slab back to the
	// storage pool when it finishes, so it is not inspectable afterwards.
	limit := 64*int64(len(s.prog.Instrs)) + 100000
	for cycle := int64(0); !s.step(cycle); cycle++ {
		if cycle > limit {
			t.Fatalf("run did not drain within %d cycles", limit)
		}
	}
	if n := len(s.freeList); n == 0 || n > 4*cfg.ROBSize {
		t.Fatalf("free list holds %d slots after a 2002-instruction run; want a core-capacity bound (<= %d)",
			n, 4*cfg.ROBSize)
	}
	if len(s.slab) != len(s.freeList) {
		t.Fatalf("drained run must return every slot: slab %d, free %d", len(s.slab), len(s.freeList))
	}
	// The slab starts each run at length zero and grows by one slot per
	// allocation past its high-water mark, so its length is this run's peak,
	// whatever capacity pooled storage lent it.
	if bound := 2*cfg.ROBSize + 8; len(s.slab) > bound {
		t.Fatalf("slab grew past its preallocated bound: %d slots, bound %d", len(s.slab), bound)
	}
}

// TestSteadyStateIssueAllocFree pins the tentpole property: once warm, the
// dispatch/issue/commit loop allocates nothing.
func TestSteadyStateIssueAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is not meaningful under the race detector")
	}
	s, err := New(BigConfig().WithPolicy(PolicyRedsoc), longChain(isa.OpEOR, 40000))
	if err != nil {
		t.Fatal(err)
	}
	cycle := int64(0)
	for ; cycle < 2000; cycle++ {
		if s.step(cycle) {
			t.Fatal("program drained during warmup")
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		for end := cycle + 10; cycle < end; cycle++ {
			if s.step(cycle) {
				t.Fatal("program drained during the measurement window")
			}
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state scheduler allocates: %.2f allocs per 10-cycle window", avg)
	}
}

// TestTryFuseAbandonedLeavesNoResidue is the regression test for the MOS
// fusion bug: probing a fuse candidate whose width prediction turns out
// aggressive used to count a width replay, rewrite the candidate's EX-TIME,
// train the predictor and latch the execution outcome — all while the op was
// still waiting, double-accounting its later real issue.
func TestTryFuseAbandonedLeavesNoResidue(t *testing.T) {
	wb := workload.NewBuilder("fuseprobe")
	wb.Op3(isa.OpEOR, isa.R(1), isa.R(9), isa.R(9)) // ti 0: the issued producer
	wb.Op3(isa.OpADD, isa.R(3), isa.R(1), isa.R(2)) // ti 1: the fusion candidate
	s, err := New(SmallConfig().WithPolicy(PolicyMOS), wb.Build())
	if err != nil {
		t.Fatal(err)
	}
	ei := s.alloc()
	bi := s.alloc()
	e := s.ent(ei)
	e.ti = 0
	e.op = isa.OpEOR
	e.bits = trace.BitSingleCycle
	e.state = stIssued
	e.broadcastCycle = 5
	e.exTicks = 1
	e.fu = fuALU
	e.result = alu.Value{Lo: 1 << 40} // wide operand: dependent exercises 64 bits
	b := s.ent(bi)
	b.ti = 1
	b.op = isa.OpADD
	b.bits = trace.BitSingleCycle
	b.state = stWaiting
	b.fu = fuALU
	b.exTicks = 1
	b.est = core.Estimate{Predicted: true, Width: isa.Width8, ExTicks: 1}
	b.iSrc1, b.iSrc2, b.iSrc3, b.iFlags = 0, 1, -1, -1
	b.nsrc = 2
	b.gp, b.memDep = none, none
	b.srcs[0] = srcRef{idx: uint8(isa.R(1).RenameIndex()), prod: ei}
	b.srcs[1] = srcRef{idx: uint8(isa.R(2).RenameIndex()), prod: none, value: alu.Value{Lo: 3}}
	s.rs = append(s.rs, bi)
	e.waiters = append(e.waiters, bi) // dispatch registers the consumer on its producer's tag

	s.tryFuse(e, 5)

	if b.fused || b.state != stWaiting {
		t.Fatal("aggressive width prediction must abandon the fusion")
	}
	if s.res.WidthReplays != 0 {
		t.Fatalf("abandoned fusion counted %d width replays; the replay belongs to the later real issue",
			s.res.WidthReplays)
	}
	if b.exTicks != 1 {
		t.Fatalf("abandoned fusion rewrote the waiting op's EX-TIME to %d", b.exTicks)
	}
	if b.result != (alu.Value{}) || b.writesFlags || b.actualWidth != isa.Width8 || b.delayPS != 0 {
		t.Fatal("abandoned fusion latched an execution outcome into a waiting entry")
	}
	if st := s.widthPred.Stats(); st.Aggressive+st.Exact+st.Conservative != 0 {
		t.Fatalf("abandoned fusion trained the width predictor: %+v", st)
	}

	// The same pairing with an adequate width prediction lands — and trains
	// the predictor exactly once.
	b.est.Width = isa.Width64
	s.tryFuse(e, 5)
	if !b.fused || b.state != stIssued {
		t.Fatal("fusion with a safe width prediction must land")
	}
	if s.res.FusedOps != 1 {
		t.Fatalf("FusedOps = %d, want 1", s.res.FusedOps)
	}
	if b.result.Lo != (1<<40)+3 {
		t.Fatalf("fused execution result %#x, want %#x", b.result.Lo, uint64(1<<40)+3)
	}
	if st := s.widthPred.Stats(); st.Aggressive != 0 || st.Exact+st.Conservative != 1 {
		t.Fatalf("landed fusion must train the width predictor exactly once: %+v", st)
	}
}

// TestTrainLastArrivalConsidersAllCandidates is the regression test for the
// predictor-training bug: with three in-flight producers the trainer used to
// compare only the first two candidates, mislabeling the actual last arrival
// when the third candidate was the late one.
func TestTrainLastArrivalConsidersAllCandidates(t *testing.T) {
	const pc = uint64(0x40)
	mk := func() (*Simulator, *entry) {
		s := mkSim(t, SmallConfig().WithPolicy(PolicyRedsoc))
		prod := func(comp timing.Ticks) int32 {
			i := s.alloc()
			p := s.ent(i)
			p.state = stIssued
			p.broadcastCycle = 3
			p.estComp = comp
			p.trueComp = comp // issueEntry always stamps both before broadcast
			return i
		}
		p0, p1, p2 := prod(10), prod(20), prod(30) // p2: the true last arrival
		ei := s.alloc()
		e := s.ent(ei)
		e.pc = pc
		e.multiSrc = true
		e.nsrc = 3
		e.srcs[0] = srcRef{prod: p0}
		e.srcs[1] = srcRef{prod: p1}
		e.srcs[2] = srcRef{prod: p2}
		return s, e
	}

	// Tracked operand is candidate 0; candidate 2 arrives last. The old
	// two-candidate comparison concluded actual=1 and flipped the predictor
	// towards slot 1; the correct training records a mispredict without
	// moving the table to slot 1.
	s, e := mk()
	e.lastIdx = 0
	s.trainLastArrival(e)
	if st := s.lastPred.Stats(); st.Mispredictions != 1 {
		t.Fatalf("third-candidate-last must count one mispredict, got %+v", st)
	}
	if got := s.lastPred.Predict(pc); got != 0 {
		t.Fatalf("training moved the predictor to slot %d although candidate 2 arrived last", got)
	}

	// Tracked operand is candidate 2 and it does arrive last: the prediction
	// is correct. The old mapping scored this as pred=0/actual=1 — a phantom
	// mispredict that also poisoned the table entry.
	s, e = mk()
	e.lastIdx = 2
	s.trainLastArrival(e)
	if st := s.lastPred.Stats(); st.Mispredictions != 0 {
		t.Fatalf("correctly tracked third candidate scored as mispredict: %+v", st)
	}
	if got := s.lastPred.Predict(pc); got != 0 {
		t.Fatalf("correct prediction flipped the table entry to %d", got)
	}
}

// TestCaptureWithoutInjector is the regression test for the capture guard:
// every injector site nil-checks s.inject, and capture must too.
func TestCaptureWithoutInjector(t *testing.T) {
	s := mkSim(t, SmallConfig())
	if s.inject != nil {
		t.Fatal("inactive fault config must produce a nil injector")
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.res.FaultStats != (fault.Stats{}) {
		t.Fatalf("nil injector must leave zero fault stats, got %+v", s.res.FaultStats)
	}
}

// TestFUKindMatchesTracePool pins the correspondence the dispatch fast path
// relies on: trace.Decode's Pool column and the scheduler's fuKind routing
// must agree for every opcode class.
func TestFUKindMatchesTracePool(t *testing.T) {
	if uint8(numFUKinds) != trace.NumPools {
		t.Fatalf("numFUKinds = %d, trace.NumPools = %d", numFUKinds, trace.NumPools)
	}
	for c := 0; c < isa.NumClasses; c++ {
		class := isa.Class(c)
		if got, want := uint8(fuKindOf(class)), tracePoolOf(class); got != want {
			t.Fatalf("class %v: fuKindOf = %d, trace pool = %d", class, got, want)
		}
	}
}

// tracePoolOf recomputes trace.Decode's pool routing for one class.
func tracePoolOf(class isa.Class) uint8 {
	switch class {
	case isa.ClassSIMD, isa.ClassSIMDMul:
		return trace.PoolSIMD
	case isa.ClassFP:
		return trace.PoolFP
	case isa.ClassLoad, isa.ClassStore:
		return trace.PoolMEM
	default:
		return trace.PoolALU
	}
}
