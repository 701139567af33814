package ooo

import (
	"testing"

	"redsoc/internal/core"
	"redsoc/internal/isa"
	"redsoc/internal/trace"
	"redsoc/internal/workload"
)

// mkSim builds a simulator over a trivial program just to exercise internal
// scheduler helpers directly.
func mkSim(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	b := workload.NewBuilder("unit")
	b.MovImm(isa.R(1), 1)
	s, err := New(cfg, b.Build())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFUPoolAllocation(t *testing.T) {
	var p fuPool
	p.reset(2)
	if p.free(5) != 2 {
		t.Fatal("fresh pool must be fully free")
	}
	u0, ok0 := p.allocate(5, 2)
	u1, ok1 := p.allocate(5, 1)
	if !ok0 || !ok1 {
		t.Fatal("two allocations must fit")
	}
	if u0 != 0 || u1 != 1 {
		t.Fatalf("allocation order: got units %d, %d; want 0, 1", u0, u1)
	}
	if _, ok := p.allocate(5, 1); ok {
		t.Fatal("third allocation must fail")
	}
	// Unit 2 frees at cycle 6, unit 1 at cycle 7.
	if p.free(6) != 1 || p.free(7) != 2 {
		t.Fatalf("free(6)=%d free(7)=%d", p.free(6), p.free(7))
	}
	if p.size() != 2 {
		t.Fatal("size changed")
	}
}

func TestAwakeSemantics(t *testing.T) {
	e := &entry{broadcastCycle: -1}
	if awake(e, 5) {
		t.Fatal("unissued producer cannot be awake")
	}
	e.broadcastCycle = 5
	if awake(e, 5) {
		t.Fatal("same-cycle broadcast is not yet visible (that is EGPW's job)")
	}
	if !awake(e, 6) {
		t.Fatal("previous-cycle broadcast must be visible")
	}
	if awake(nil, 6) {
		t.Fatal("nil producer is not awake")
	}
}

func TestTracksAllParentsModes(t *testing.T) {
	base := mkSim(t, SmallConfig())
	if !base.tracksAllParents(&entry{}) {
		t.Fatal("baseline must track all parent tags")
	}
	red := mkSim(t, SmallConfig().WithPolicy(PolicyRedsoc))
	if red.tracksAllParents(&entry{}) {
		t.Fatal("Operational design tracks only the predicted last parent")
	}
	if !red.tracksAllParents(&entry{validated: true}) {
		t.Fatal("after a tag mispredict the entry falls back to all tags")
	}
	ill := SmallConfig().WithPolicy(PolicyRedsoc)
	ill.Redsoc.Design = core.Illustrative
	if !mkSim(t, ill).tracksAllParents(&entry{}) {
		t.Fatal("Illustrative design tracks all tags")
	}
}

func TestSpecEligibleRules(t *testing.T) {
	s := mkSim(t, BigConfig().WithPolicy(PolicyRedsoc))
	gpi := s.alloc()
	pi := s.alloc()
	ei := s.alloc()
	s.ent(gpi).broadcastCycle = 3
	parent := s.ent(pi)
	parent.broadcastCycle = -1
	e := s.ent(ei)
	e.bits = trace.BitSingleCycle // EOR-class transparent op
	e.lastIdx = 0
	e.gp = gpi
	e.memDep = none
	e.nsrc = 1
	e.srcs[0] = srcRef{idx: uint8(isa.R(2).RenameIndex()), prod: pi}
	if !s.specEligible(e, 5) {
		t.Fatal("gp broadcast + parent pending must be EGPW-eligible")
	}
	// Parent already awake: conventional wakeup covers it.
	parent.broadcastCycle = 3
	if s.specEligible(e, 5) {
		t.Fatal("awake parent must suppress the speculative request")
	}
	parent.broadcastCycle = -1
	// Multi-cycle op: never transparent, never EGPW.
	e.bits = 0
	if s.specEligible(e, 5) {
		t.Fatal("multi-cycle ops must not EGPW")
	}
	// EGPW disabled.
	e.bits = trace.BitSingleCycle
	s.params.EGPW = false
	if s.specEligible(e, 5) {
		t.Fatal("EGPW off must disable speculative requests")
	}
}

func TestWidthReplayPath(t *testing.T) {
	// Train the width predictor narrow, then feed wide operands: the run
	// must report replays and still compute correct values.
	b := workload.NewBuilder("widths")
	b.MovImm(isa.R(1), 1)
	b.MovImm(isa.R(2), 1)
	// Warm the predictor at one PC with narrow adds...
	b.At(0x2000)
	for i := 0; i < 50; i++ {
		b.Op3(isa.OpADD, isa.R(3), isa.R(1), isa.R(2))
	}
	// ...then switch the same static instruction to wide operands.
	b.Auto()
	b.MovImm(isa.R(1), 1<<50)
	b.At(0x2000)
	for i := 0; i < 20; i++ {
		b.Op3(isa.OpADD, isa.R(3), isa.R(1), isa.R(2))
	}
	p := b.Build()
	res := run(t, BigConfig().WithPolicy(PolicyRedsoc), p)
	if res.WidthReplays == 0 {
		t.Fatal("width growth at a trained PC must trigger replays")
	}
	base := run(t, BigConfig(), p)
	if !res.ArchEqual(base) {
		t.Fatal("replays must preserve architecture")
	}
}

func TestStoreToLoadForwardingValue(t *testing.T) {
	// A store and a dependent load in flight together: the load must get
	// the store's value via the LSQ, not stale memory.
	b := workload.NewBuilder("fwd")
	b.InitMem(0x500, 1)
	b.MovImm(isa.R(1), 0xAA)
	b.Store(isa.R(1), isa.R(0), 0x500)
	b.Load(isa.R(2), isa.R(0), 0x500)
	b.OpImm(isa.OpADD, isa.R(3), isa.R(2), 1)
	for _, pol := range []Policy{PolicyBaseline, PolicyRedsoc, PolicyMOS} {
		res := run(t, BigConfig().WithPolicy(pol), b.Build())
		if got := res.FinalRegs[isa.R(3)].Lo; got != 0xAB {
			t.Fatalf("%v: forwarded value = %#x, want 0xAB", pol, got)
		}
	}
}

func TestMOSFusionRespectsOtherParents(t *testing.T) {
	// B depends on A and on a load that resolves later: B must not fuse
	// with A before the load's data exists.
	b := workload.NewBuilder("fuselate")
	b.InitMem(0x600, 0x0F)
	b.Load(isa.R(2), isa.R(0), 0x8000) // cold miss: resolves late
	b.MovImm(isa.R(1), 0xF0)
	b.At(0x3000)
	b.Op3(isa.OpEOR, isa.R(3), isa.R(1), isa.R(1)) // A: fusable producer
	b.Op3(isa.OpORR, isa.R(4), isa.R(3), isa.R(2)) // B: needs the load too
	res := run(t, BigConfig().WithPolicy(PolicyMOS), b.Build())
	base := run(t, BigConfig(), b.Build())
	if !res.ArchEqual(base) {
		t.Fatal("fusion broke architecture")
	}
}

func TestIssueCyclesCounted(t *testing.T) {
	res := run(t, SmallConfig(), longChain(isa.OpEOR, 50))
	if res.IssueCycles == 0 || res.IssueCycles > res.Cycles {
		t.Fatalf("IssueCycles = %d of %d", res.IssueCycles, res.Cycles)
	}
}

func TestSkewAblationNeverStarvesConventional(t *testing.T) {
	// With skew disabled, speculative GP requests may beat conventional
	// ones; results must still be architecturally identical.
	p := randomProgram(3, 1500)
	base := run(t, SmallConfig(), p)
	cfg := SmallConfig().WithPolicy(PolicyRedsoc)
	cfg.Redsoc.SkewedSelect = false
	noskew := run(t, cfg, p)
	if !noskew.ArchEqual(base) {
		t.Fatal("unskewed selection diverged")
	}
}

func TestLoadsNeverTransparent(t *testing.T) {
	s := mkSim(t, BigConfig().WithPolicy(PolicyRedsoc))
	ld := &entry{bits: trace.BitMem | trace.BitLoad, fu: fuMEM, isLoad: true}
	if s.canTransparent(ld) {
		t.Fatal("loads are true-synchronous")
	}
	mul := &entry{} // multi-cycle: no BitSingleCycle
	if s.canTransparent(mul) {
		t.Fatal("MUL is true-synchronous")
	}
	eor := &entry{bits: trace.BitSingleCycle}
	if !s.canTransparent(eor) {
		t.Fatal("EOR must be transparent-capable")
	}
}

func TestVecStoreVecLoadOverlapKinds(t *testing.T) {
	// 64-bit store inside a 128-bit load's range: the load must wait for
	// commit (non-forwardable) and read coherent memory.
	b := workload.NewBuilder("overlap")
	b.InitMem128(0x700, 0x1111, 0x2222)
	b.MovImm(isa.R(1), 0x9999)
	b.Store(isa.R(1), isa.R(0), 0x708) // overwrites the high word
	b.VecLoad(isa.V(1), isa.R(0), 0x700)
	b.VecStore(isa.V(1), isa.R(0), 0x800)
	b.Load(isa.R(2), isa.R(0), 0x808)
	for _, pol := range []Policy{PolicyBaseline, PolicyRedsoc} {
		res := run(t, MediumConfig().WithPolicy(pol), b.Build())
		if got := res.FinalRegs[isa.R(2)].Lo; got != 0x9999 {
			t.Fatalf("%v: partial-overlap load = %#x, want 0x9999", pol, got)
		}
	}
}
