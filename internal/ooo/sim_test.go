package ooo

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"redsoc/internal/core"
	"redsoc/internal/isa"
	"redsoc/internal/timing"
	"redsoc/internal/workload"
)

func run(t *testing.T, cfg Config, p *isa.Program) *Result {
	t.Helper()
	res, err := Run(cfg, p)
	if err != nil {
		t.Fatalf("run %s/%s on %s: %v", cfg.Name, cfg.Policy, p.Name, err)
	}
	return res
}

func TestTableIConfigs(t *testing.T) {
	small, med, big := SmallConfig(), MediumConfig(), BigConfig()
	if small.FrontEndWidth != 3 || med.FrontEndWidth != 4 || big.FrontEndWidth != 8 {
		t.Error("front-end widths must be 3/4/8 per Table I")
	}
	if small.ROBSize != 40 || small.LSQSize != 16 || small.RSESize != 32 {
		t.Error("Small ROB/LSQ/RSE must be 40/16/32")
	}
	if med.ROBSize != 80 || med.LSQSize != 32 || med.RSESize != 64 {
		t.Error("Medium ROB/LSQ/RSE must be 80/32/64")
	}
	if big.ROBSize != 160 || big.LSQSize != 64 || big.RSESize != 128 {
		t.Error("Big ROB/LSQ/RSE must be 160/64/128")
	}
	if small.NumALU != 3 || med.NumALU != 4 || big.NumALU != 6 {
		t.Error("ALU counts must be 3/4/6")
	}
	if small.NumSIMD != 2 || med.NumSIMD != 3 || big.NumSIMD != 4 {
		t.Error("SIMD counts must be 2/3/4")
	}
	if small.NumFP != 2 || med.NumFP != 3 || big.NumFP != 4 {
		t.Error("FP counts must be 2/3/4")
	}
	for _, c := range []Config{small, med, big} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

// TestNewConfigScope checks what New accepts: every policy and every optional
// mechanism (faults, degradation, PVT, the dynamic threshold), but not a
// configuration Validate rejects.
func TestNewConfigScope(t *testing.T) {
	cases := []struct {
		name   string
		policy Policy
		edit   func(*Config)
		valid  bool
	}{
		{"loaddelay", PolicyLoadDelay, func(*Config) {}, true},
		{"speclsq", PolicySpecLSQ, func(*Config) {}, true},
		{"fault", PolicyRedsoc, func(c *Config) { *c = c.WithFaults(0.01, 1); c.Degrade.Enable = false }, true},
		{"degrade", PolicyRedsoc, func(c *Config) { c.Degrade.Enable = true }, true},
		{"pvt", PolicyRedsoc, func(c *Config) { c.PVT.Enable = true }, true},
		{"dynamic-threshold", PolicyRedsoc, func(c *Config) { c.Redsoc.DynamicThreshold = true }, true},
		{"zero-rob", PolicyBaseline, func(c *Config) { c.ROBSize = 0 }, false},
	}
	prog := workload.NewBuilder("scope").MovImm(isa.R(1), 1).Build()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := SmallConfig().WithPolicy(tc.policy)
			tc.edit(&cfg)
			if _, err := New(cfg, prog); (err == nil) != tc.valid {
				t.Fatalf("New error %v, want valid=%v", err, tc.valid)
			}
		})
	}
}

func TestSimpleProgramResult(t *testing.T) {
	b := workload.NewBuilder("simple")
	b.MovImm(isa.R(1), 6)
	b.MovImm(isa.R(2), 7)
	b.Op3(isa.OpMUL, isa.R(3), isa.R(1), isa.R(2))
	b.OpImm(isa.OpADD, isa.R(4), isa.R(3), 8)
	p := b.Build()
	res := run(t, SmallConfig(), p)
	if got := res.FinalRegs[isa.R(4)].Lo; got != 50 {
		t.Fatalf("R4 = %d, want 50", got)
	}
	if res.Instructions != 4 {
		t.Fatalf("committed %d instructions, want 4", res.Instructions)
	}
}

// TestResultDoesNotPinSimulator: the Result a run returns is its own
// allocation, not a field of the Simulator, so a caller that keeps results
// (a campaign's run cache, a grid's cells) keeps only them — not the slab,
// memory image and predictor tables of every simulator that produced one.
func TestResultDoesNotPinSimulator(t *testing.T) {
	b := workload.NewBuilder("pin")
	b.MovImm(isa.R(1), 6)
	b.OpImm(isa.OpADD, isa.R(2), isa.R(1), 8)
	s, err := New(SmallConfig(), b.Build())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(s))
	hi := lo + unsafe.Sizeof(*s)
	if p := uintptr(unsafe.Pointer(res)); p >= lo && p < hi {
		t.Fatalf("Run returned a pointer %d bytes into its %d-byte Simulator; a retained Result pins the whole simulator", p-lo, hi-lo)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	b := workload.NewBuilder("ldst")
	b.InitMem(0x100, 41)
	b.Load(isa.R(1), isa.R(0), 0x100)
	b.OpImm(isa.OpADD, isa.R(2), isa.R(1), 1)
	b.Store(isa.R(2), isa.R(0), 0x108)
	b.Load(isa.R(3), isa.R(0), 0x108) // must see the store via forwarding
	p := b.Build()
	for _, pol := range []Policy{PolicyBaseline, PolicyRedsoc} {
		res := run(t, SmallConfig().WithPolicy(pol), p)
		if got := res.FinalRegs[isa.R(3)].Lo; got != 42 {
			t.Fatalf("%v: R3 = %d, want 42 (store-load forwarding broken)", pol, got)
		}
		if res.FinalMem[0x108] != 42 {
			t.Fatalf("%v: memory at 0x108 = %d", pol, res.FinalMem[0x108])
		}
	}
}

func TestFlagChain(t *testing.T) {
	b := workload.NewBuilder("flags")
	b.MovImm(isa.R(1), 5)
	b.CmpImm(isa.R(1), 5)                                                         // Z=1, C=1
	b.Raw(isa.Instruction{Op: isa.OpADC, Dst: isa.R(2), Src1: isa.R(1), Imm: 10}) // 5+10+C(1)=16
	p := b.Build()
	for _, pol := range []Policy{PolicyBaseline, PolicyRedsoc} {
		res := run(t, MediumConfig().WithPolicy(pol), p)
		if got := res.FinalRegs[isa.R(2)].Lo; got != 16 {
			t.Fatalf("%v: ADC after CMP = %d, want 16", pol, got)
		}
		if !res.FinalFlags.Z || !res.FinalFlags.C {
			t.Fatalf("%v: final flags = %+v", pol, res.FinalFlags)
		}
	}
}

// longChain builds n dependent single-cycle ops of the given opcode.
func longChain(op isa.Op, n int) *isa.Program {
	b := workload.NewBuilder("chain")
	b.MovImm(isa.R(1), 0x55)
	b.MovImm(isa.R(2), 0x33)
	b.At(0x2000)
	for i := 0; i < n; i++ {
		b.Op3(op, isa.R(1), isa.R(1), isa.R(2))
	}
	return b.Build()
}

func TestRedsocAcceleratesLogicChain(t *testing.T) {
	p := longChain(isa.OpEOR, 400)
	base := run(t, BigConfig().WithPolicy(PolicyBaseline), p)
	red := run(t, BigConfig().WithPolicy(PolicyRedsoc), p)
	if !red.ArchEqual(base) {
		t.Fatal("ReDSOC changed architectural results")
	}
	speedup := red.SpeedupOver(base)
	// EOR is a ~4-tick op: two fit per cycle, so a pure chain approaches 2x.
	if speedup < 1.5 {
		t.Fatalf("dependent logic chain speedup = %.3f, want >= 1.5", speedup)
	}
	if red.RecycledOps == 0 {
		t.Fatal("no operations recycled on a pure dependency chain")
	}
	if red.Sequences.Count() == 0 {
		t.Fatal("no transparent sequences recorded")
	}
}

func TestCriticalPathOpsGainNothing(t *testing.T) {
	// 64-bit shifted-arith ops have no slack: ReDSOC must not slow them
	// down, and must recycle (essentially) nothing.
	b := workload.NewBuilder("critchain")
	b.MovImm(isa.R(1), ^uint64(0)>>1)
	b.MovImm(isa.R(2), 0x7FFFFFFFFFFF)
	b.At(0x2000)
	for i := 0; i < 200; i++ {
		b.ShiftedArith(isa.OpADDLSR, isa.R(1), isa.R(1), isa.R(2), 1)
	}
	p := b.Build()
	base := run(t, BigConfig().WithPolicy(PolicyBaseline), p)
	red := run(t, BigConfig().WithPolicy(PolicyRedsoc), p)
	if !red.ArchEqual(base) {
		t.Fatal("architectural mismatch")
	}
	s := red.SpeedupOver(base)
	if s < 0.98 || s > 1.05 {
		t.Fatalf("zero-slack chain speedup = %.3f, want ~1.0", s)
	}
}

func TestRedsocNeverSlowsDownMeaningfully(t *testing.T) {
	progs := []*isa.Program{
		longChain(isa.OpADD, 300),
		longChain(isa.OpAND, 300),
		longChain(isa.OpLSL, 100),
	}
	for _, p := range progs {
		for _, cfgF := range []func() Config{SmallConfig, MediumConfig, BigConfig} {
			base := run(t, cfgF().WithPolicy(PolicyBaseline), p)
			red := run(t, cfgF().WithPolicy(PolicyRedsoc), p)
			if s := red.SpeedupOver(base); s < 0.95 {
				t.Errorf("%s on %s: ReDSOC slowdown %.3f", p.Name, base.Config.Name, s)
			}
		}
	}
}

func TestEGPWRequiredForChainRecycling(t *testing.T) {
	p := longChain(isa.OpEOR, 400)
	cfg := BigConfig().WithPolicy(PolicyRedsoc)
	full := run(t, cfg, p)
	cfg.Redsoc.EGPW = false
	noEGPW := run(t, cfg, p)
	if full.Cycles >= noEGPW.Cycles {
		t.Fatalf("EGPW must speed up a dependent chain: with=%d without=%d cycles",
			full.Cycles, noEGPW.Cycles)
	}
	if noEGPW.GPWakeupGrants != 0 {
		t.Fatal("no GP grants possible with EGPW disabled")
	}
}

func TestTwoCycleHoldsHappen(t *testing.T) {
	// A 32-bit ADD chain runs at 6 ticks per op: consecutive recycled ops
	// must cross cycle boundaries and hold their FU two cycles.
	b := workload.NewBuilder("addchain32")
	b.MovImm(isa.R(1), 1<<20)
	b.MovImm(isa.R(2), 3)
	b.At(0x2000)
	for i := 0; i < 100; i++ {
		b.Op3(isa.OpADD, isa.R(1), isa.R(1), isa.R(2))
	}
	res := run(t, BigConfig().WithPolicy(PolicyRedsoc), b.Build())
	if res.TwoCycleHolds == 0 {
		t.Fatal("boundary-crossing recycled ops must hold their FU two cycles")
	}
}

func TestMemHLClassification(t *testing.T) {
	b := workload.NewBuilder("memscan")
	// Strided loads defeating the next-line prefetcher: mostly L1 misses.
	for i := 0; i < 200; i++ {
		b.Load(isa.R(1), isa.R(0), uint64(i)*4096)
	}
	res := run(t, SmallConfig(), b.Build())
	if res.Mix.MemHL < 150 {
		t.Fatalf("strided loads must classify as MEM-HL, got %+v", res.Mix)
	}
	b2 := workload.NewBuilder("hotload")
	for i := 0; i < 200; i++ {
		b2.Load(isa.R(1), isa.R(0), 0x40)
	}
	res2 := run(t, SmallConfig(), b2.Build())
	if res2.Mix.MemLL < 190 {
		t.Fatalf("hot loads must classify as MEM-LL, got %+v", res2.Mix)
	}
}

func TestOpMixClassification(t *testing.T) {
	b := workload.NewBuilder("mix")
	b.MovImm(isa.R(1), 1)
	b.Op3(isa.OpAND, isa.R(2), isa.R(1), isa.R(1))                // ALU-HS
	b.ShiftedArith(isa.OpADDLSR, isa.R(3), isa.R(1), isa.R(1), 0) // width 1? narrow -> HS
	b.Op3(isa.OpMUL, isa.R(4), isa.R(1), isa.R(1))                // OtherMulti
	b.Vec3(isa.OpVADD, isa.Lane8, isa.V(1), isa.V(0), isa.V(0))   // SIMD
	b.Op3(isa.OpFADD, isa.R(5), isa.R(1), isa.R(1))               // OtherMulti
	res := run(t, MediumConfig(), b.Build())
	if res.Mix.SIMD != 1 || res.Mix.OtherMulti != 2 {
		t.Fatalf("mix = %+v", res.Mix)
	}
	if got := res.Mix.Total(); got != res.Instructions {
		t.Fatalf("mix total %d != instructions %d", got, res.Instructions)
	}
}

func TestMOSFusesLogicPairs(t *testing.T) {
	p := longChain(isa.OpEOR, 300)
	base := run(t, BigConfig().WithPolicy(PolicyBaseline), p)
	mos := run(t, BigConfig().WithPolicy(PolicyMOS), p)
	if !mos.ArchEqual(base) {
		t.Fatal("MOS changed architectural results")
	}
	if mos.FusedOps == 0 {
		t.Fatal("MOS must fuse dependent logic pairs")
	}
	if mos.Cycles >= base.Cycles {
		t.Fatalf("MOS must beat baseline on a logic chain: %d vs %d", mos.Cycles, base.Cycles)
	}
}

func TestMOSCannotFuseArith(t *testing.T) {
	// Two dependent 64-bit adds exceed one cycle: nothing to fuse.
	b := workload.NewBuilder("addchain")
	b.MovImm(isa.R(1), 1)
	b.MovImm(isa.R(2), 1<<60)
	b.At(0x2000)
	for i := 0; i < 100; i++ {
		b.Op3(isa.OpADD, isa.R(1), isa.R(1), isa.R(2))
	}
	res := run(t, BigConfig().WithPolicy(PolicyMOS), b.Build())
	if res.FusedOps != 0 {
		t.Fatalf("wide adds must not fuse, got %d fusions", res.FusedOps)
	}
}

func TestCommitWidthBoundsIPC(t *testing.T) {
	// Fully independent ops: IPC is bounded by FU count / front-end width.
	b := workload.NewBuilder("indep")
	for i := 0; i < 600; i++ {
		b.OpImm(isa.OpADD, isa.R(1+i%8), isa.R(0), uint64(i))
	}
	res := run(t, SmallConfig(), b.Build())
	if ipc := res.IPC(); ipc > 3.0 {
		t.Fatalf("Small core IPC %.2f exceeds front-end width 3", ipc)
	}
	if ipc := res.IPC(); ipc < 2.0 {
		t.Fatalf("independent adds should approach the 3-wide limit, got %.2f", ipc)
	}
}

func TestFUStallsCounted(t *testing.T) {
	// Unpipelined divides clog the ALUs for 12 cycles each while
	// independent adds pile up behind them.
	b := workload.NewBuilder("contend")
	for i := 0; i < 50; i++ {
		b.Op3(isa.OpDIV, isa.R(1+i%3), isa.R(9), isa.R(10))
		for j := 0; j < 6; j++ {
			b.OpImm(isa.OpADD, isa.R(4+j%4), isa.R(0), uint64(j))
		}
	}
	res := run(t, SmallConfig(), b.Build())
	if res.FUStallCycles == 0 {
		t.Fatal("divides monopolizing the ALUs must cause FU stalls")
	}
	if r := res.FUStallRate(); r <= 0 || r > 1 {
		t.Fatalf("FUStallRate = %v", r)
	}
}

func TestVectorLoadStore(t *testing.T) {
	b := workload.NewBuilder("vec")
	b.InitMem128(0x200, 0x1111, 0x2222)
	b.VecLoad(isa.V(1), isa.R(0), 0x200)
	b.VecImm(isa.OpVADD, isa.Lane16, isa.V(2), isa.V(1), 1)
	b.VecStore(isa.V(2), isa.R(0), 0x300)
	b.Load(isa.R(1), isa.R(0), 0x300)
	b.Load(isa.R(2), isa.R(0), 0x308)
	p := b.Build()
	// VADD.16 with a splatted immediate adds 1 to every 16-bit lane.
	wantLo := uint64(0x0001_0001_0001_1112)
	wantHi := uint64(0x0001_0001_0001_2223)
	for _, pol := range []Policy{PolicyBaseline, PolicyRedsoc} {
		res := run(t, BigConfig().WithPolicy(pol), p)
		if res.FinalRegs[isa.R(1)].Lo != wantLo || res.FinalRegs[isa.R(2)].Lo != wantHi {
			t.Fatalf("%v: vector store-load = %#x/%#x", pol,
				res.FinalRegs[isa.R(1)].Lo, res.FinalRegs[isa.R(2)].Lo)
		}
	}
}

// randomProgram generates a deterministic pseudo-random program mixing ALU,
// SIMD, memory, multi-cycle and flag traffic over a few registers.
func randomProgram(seed int64, n int) *isa.Program {
	rng := rand.New(rand.NewSource(seed))
	b := workload.NewBuilder("random")
	for i := 0; i < 8; i++ {
		b.MovImm(isa.R(i+1), rng.Uint64()>>uint(rng.Intn(60)))
		b.InitMem(uint64(0x1000+8*i), rng.Uint64())
	}
	scalarOps := []isa.Op{
		isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpEOR, isa.OpORR, isa.OpBIC,
		isa.OpADC, isa.OpSBC, isa.OpRSB, isa.OpMVN, isa.OpMOV, isa.OpMUL,
	}
	vecOps := []isa.Op{isa.OpVADD, isa.OpVSUB, isa.OpVEOR, isa.OpVMAX, isa.OpVMUL}
	lanes := []isa.Lane{isa.Lane8, isa.Lane16, isa.Lane32, isa.Lane64}
	reg := func() isa.Reg { return isa.R(1 + rng.Intn(8)) }
	vreg := func() isa.Reg { return isa.V(rng.Intn(4)) }
	b.At(uint64(0x2000 + rng.Intn(64)*4))
	for i := 0; i < n; i++ {
		b.At(uint64(0x2000 + rng.Intn(64)*4))
		switch k := rng.Intn(10); {
		case k < 5:
			b.Op3(scalarOps[rng.Intn(len(scalarOps))], reg(), reg(), reg())
		case k < 6:
			b.Shift(isa.OpLSR, reg(), reg(), uint8(rng.Intn(16)))
		case k < 7:
			b.ShiftedArith(isa.OpADDLSR, reg(), reg(), reg(), uint8(rng.Intn(8)))
		case k < 8:
			addr := uint64(0x1000 + 8*rng.Intn(32))
			if rng.Intn(2) == 0 {
				b.Load(reg(), isa.R(0), addr)
			} else {
				b.Store(reg(), isa.R(0), addr)
			}
		case k < 9:
			b.Vec3(vecOps[rng.Intn(len(vecOps))], lanes[rng.Intn(len(lanes))], vreg(), vreg(), vreg())
		default:
			b.Cmp(reg(), reg())
			b.Branch(rng.Intn(2) == 0)
		}
	}
	return b.Build()
}

// TestSchedulerEquivalenceProperty is the central correctness invariant:
// every scheduling policy on every core must produce bit-identical
// architectural state for the same program.
func TestSchedulerEquivalenceProperty(t *testing.T) {
	cfgs := []func() Config{SmallConfig, MediumConfig, BigConfig}
	for seed := int64(1); seed <= 12; seed++ {
		p := randomProgram(seed, 400)
		cfg := cfgs[int(seed)%len(cfgs)]()
		base := run(t, cfg.WithPolicy(PolicyBaseline), p)
		for _, pol := range []Policy{PolicyRedsoc, PolicyMOS} {
			other := run(t, cfg.WithPolicy(pol), p)
			if !other.ArchEqual(base) {
				t.Fatalf("seed %d on %s: %v diverged from baseline", seed, cfg.Name, pol)
			}
		}
		// Illustrative RSE design must match too.
		ill := cfg.WithPolicy(PolicyRedsoc)
		ill.Redsoc.Design = core.Illustrative
		other := run(t, ill, p)
		if !other.ArchEqual(base) {
			t.Fatalf("seed %d on %s: illustrative design diverged", seed, cfg.Name)
		}
	}
}

// TestRedsocBeatsBaselineOnMixedCode: random code with dependency chains
// should still show some gain on the Big core.
func TestRedsocGainsOnMixedCode(t *testing.T) {
	p := randomProgram(42, 3000)
	base := run(t, BigConfig().WithPolicy(PolicyBaseline), p)
	red := run(t, BigConfig().WithPolicy(PolicyRedsoc), p)
	if red.Cycles > base.Cycles {
		t.Fatalf("ReDSOC slower on mixed code: %d vs %d cycles", red.Cycles, base.Cycles)
	}
}

func TestPrecisionSweepMonotonicity(t *testing.T) {
	// Finer slack precision can only help (more recyclable slack visible).
	p := longChain(isa.OpEOR, 300)
	var prev int64 = 1 << 62
	for _, bits := range []int{1, 2, 3} {
		cfg := BigConfig().WithPolicy(PolicyRedsoc)
		cfg.PrecisionBits = bits
		cfg.Redsoc = core.DefaultParams(timing.MustClock(bits))
		res := run(t, cfg, p)
		if res.Cycles > prev {
			t.Fatalf("precision %d bits made things worse: %d > %d cycles", bits, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

func TestIllustrativeVsOperationalClose(t *testing.T) {
	p := randomProgram(7, 3000)
	cfg := BigConfig().WithPolicy(PolicyRedsoc)
	op := run(t, cfg, p)
	cfg.Redsoc.Design = core.Illustrative
	il := run(t, cfg, p)
	ratio := float64(op.Cycles) / float64(il.Cycles)
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("operational vs illustrative cycles ratio %.3f, paper says within ~1%%", ratio)
	}
}

func TestDeadlockGuard(t *testing.T) {
	p := longChain(isa.OpEOR, 10)
	cfg := SmallConfig()
	cfg.MaxCycles = 3
	if _, err := Run(cfg, p); err == nil {
		t.Fatal("cycle cap must surface as an error")
	}
}

// TestRunContextStops: a run honours its context. An already-cancelled
// context stops it before its first cycle and a deadline that expires
// mid-run stops it at the next poll, each with an error wrapping the
// context's and no Result; a stopped run leaves nothing behind for the next
// run, and a context that never ends changes nothing.
func TestRunContextStops(t *testing.T) {
	p := randomProgram(3, 400)
	want := run(t, BigConfig(), p)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := RunContext(cancelled, BigConfig(), p); res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: a Result (%t) and error %v; want none and one wrapping context.Canceled", res != nil, err)
	}

	s, err := New(SmallConfig(), longChain(isa.OpEOR, 300000))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	res, err := s.RunContext(ctx)
	if res != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: a Result (%t) and error %v; want none and one wrapping context.DeadlineExceeded", res != nil, err)
	}
	if strings.Contains(err.Error(), "stopped at cycle 0:") {
		t.Fatalf("the deadline expired before the run began: %v", err)
	}

	for _, c := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"Run", func() (*Result, error) { return Run(BigConfig(), p) }},
		{"RunContext(Background)", func() (*Result, error) { return RunContext(context.Background(), BigConfig(), p) }},
	} {
		if got, err := c.run(); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s after the stopped runs: error %v, or a Result other than the first run's", c.name, err)
		}
	}
}

func TestStoreLoadPartialOverlapWaitsForCommit(t *testing.T) {
	b := workload.NewBuilder("partial")
	// 128-bit store, then a 64-bit load of its upper word, then a 64-bit
	// load of the lower: both must see the store.
	b.VecStore(isa.V(1), isa.R(0), 0x400) // V1 = 0 initially: stores zeros
	b.MovImm(isa.R(1), 0xAB)
	b.Store(isa.R(1), isa.R(0), 0x400)
	b.Load(isa.R(2), isa.R(0), 0x400)
	b.Load(isa.R(3), isa.R(0), 0x408)
	p := b.Build()
	for _, pol := range []Policy{PolicyBaseline, PolicyRedsoc} {
		res := run(t, MediumConfig().WithPolicy(pol), p)
		if res.FinalRegs[isa.R(2)].Lo != 0xAB || res.FinalRegs[isa.R(3)].Lo != 0 {
			t.Fatalf("%v: partial-overlap ordering broken: R2=%#x R3=%#x",
				pol, res.FinalRegs[isa.R(2)].Lo, res.FinalRegs[isa.R(3)].Lo)
		}
	}
}

func TestResultAccessors(t *testing.T) {
	p := longChain(isa.OpEOR, 50)
	res := run(t, SmallConfig(), p)
	if res.IPC() <= 0 {
		t.Fatal("IPC must be positive")
	}
	if res.SpeedupOver(res) != 1.0 {
		t.Fatal("self-speedup must be 1")
	}
	if !res.ArchEqual(res) {
		t.Fatal("result must equal itself")
	}
}
