// Package difftest is the differential harness for the scheduler
// (internal/ooo). It generates random well-formed trace programs, runs each
// through every core/policy Pair and checks two things:
//
//   - Committed state. A run's final registers, flags, memory and
//     instruction count must equal those of the in-order architectural
//     interpreter (internal/arch). Slack recycling may change when an
//     operation completes, never what it commits, so this holds for every
//     policy, the dynamic-delay ones included.
//   - Timing. A run's cycle count, rendered event stream and metrics JSON
//     are pinned by one Digest per (program, pair) in testdata/golden.txt,
//     so a change of representation that moves a single event or counter
//     fails and names the program.
//
// An audit build (-tags redsoc_audit) also steps the interpreter beside the
// engine's commit stage and stops at the first committed value that differs.
package difftest

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"

	"redsoc/internal/arch"
	"redsoc/internal/isa"
	"redsoc/internal/obs"
	"redsoc/internal/ooo"
	"redsoc/internal/workload"
)

// Pair is one core/policy configuration the harness runs.
type Pair struct {
	Name   string
	Config ooo.Config
}

// Pairs returns the configurations the harness runs: every policy on the
// Small core (cheap, so every random program covers all of the schedulers)
// plus the Medium and Big cores under ReDSOC for capacity-pressure shapes.
func Pairs() []Pair {
	return []Pair{
		{Name: "small/baseline", Config: ooo.SmallConfig().WithPolicy(ooo.PolicyBaseline)},
		{Name: "small/redsoc", Config: ooo.SmallConfig().WithPolicy(ooo.PolicyRedsoc)},
		{Name: "small/mos", Config: ooo.SmallConfig().WithPolicy(ooo.PolicyMOS)},
		{Name: "medium/redsoc", Config: ooo.MediumConfig().WithPolicy(ooo.PolicyRedsoc)},
		{Name: "big/redsoc", Config: ooo.BigConfig().WithPolicy(ooo.PolicyRedsoc)},
		{Name: "small/loaddelay", Config: ooo.SmallConfig().WithPolicy(ooo.PolicyLoadDelay)},
		{Name: "small/speclsq", Config: ooo.SmallConfig().WithPolicy(ooo.PolicySpecLSQ)},
	}
}

// Generate emits a deterministic pseudo-random well-formed trace program of n
// dynamic instructions. The mix deliberately stresses every scheduler
// mechanism the rewrite touched: dense single-cycle dependency chains
// (recycling and MOS fusion), three-producer operations (MLA/VMLA), flag
// producers and consumers (ADC/SBC/branches), multi-cycle and FP operations,
// SIMD lanes, overlapping loads and stores (store-to-load forwarding and
// memory-dependence wakeup), and resolved branches in both directions
// (redirect recovery).
func Generate(seed int64, n int) *isa.Program {
	rng := rand.New(rand.NewSource(seed))
	b := workload.NewBuilder(fmt.Sprintf("diff-%d", seed))

	// A small register window keeps the dependency graph dense; a small
	// aligned address pool makes load/store overlap common.
	const nreg, nvec, nwords = 12, 6, 16
	const memBase = 0x20_0000
	r := func() isa.Reg { return isa.R(rng.Intn(nreg)) }
	v := func() isa.Reg { return isa.V(rng.Intn(nvec)) }
	addr := func() uint64 { return memBase + 8*uint64(rng.Intn(nwords)) }
	vaddr := func() uint64 { return memBase + 8*uint64(rng.Intn(nwords-1)) }
	lane := func() isa.Lane { return isa.Lane(8 << rng.Intn(4)) }
	for w := 0; w < nwords; w++ {
		b.InitMem(memBase+8*uint64(w), rng.Uint64())
	}
	for i := 0; i < nreg; i++ {
		b.MovImm(isa.R(i), rng.Uint64())
	}
	for i := 0; i < nvec; i++ {
		b.MovImm(isa.V(i), rng.Uint64())
	}

	alu3 := []isa.Op{isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpORR, isa.OpEOR, isa.OpBIC, isa.OpRSB, isa.OpADC, isa.OpSBC}
	shifts := []isa.Op{isa.OpLSL, isa.OpLSR, isa.OpASR, isa.OpROR}
	vec3 := []isa.Op{isa.OpVADD, isa.OpVSUB, isa.OpVAND, isa.OpVEOR, isa.OpVMAX, isa.OpVMIN, isa.OpVMUL}
	fp := []isa.Op{isa.OpFADD, isa.OpFMUL, isa.OpFDIV}

	for b.Len() < n {
		switch p := rng.Intn(100); {
		case p < 32: // dependent single-cycle ALU
			b.Op3(alu3[rng.Intn(len(alu3))], r(), r(), r())
		case p < 40:
			b.OpImm(alu3[rng.Intn(4)], r(), r(), rng.Uint64()>>uint(rng.Intn(64)))
		case p < 46:
			b.Shift(shifts[rng.Intn(len(shifts))], r(), r(), uint8(rng.Intn(64)))
		case p < 50:
			b.ShiftedArith(isa.OpADDLSR, r(), r(), r(), uint8(rng.Intn(32)))
		case p < 56: // flag producer, sometimes consumed by a branch
			b.Cmp(r(), r())
			if rng.Intn(2) == 0 {
				// Pin branch PCs to a handful of sites so the branch
				// predictor sees repeated static branches (both engines
				// share the aliasing).
				b.At(0x9000 + 4*uint64(rng.Intn(4))).Branch(rng.Intn(3) == 0).Auto()
			}
		case p < 60: // multi-cycle: MUL, 3-producer MLA, long-latency DIV
			switch rng.Intn(3) {
			case 0:
				b.Op3(isa.OpMUL, r(), r(), r())
			case 1:
				b.MulAcc(r(), r(), r(), r())
			default:
				b.Op3(isa.OpDIV, r(), r(), r())
			}
		case p < 65: // FP pool
			b.Op3(fp[rng.Intn(len(fp))], r(), r(), r())
		case p < 73: // SIMD pool, including the 3-producer VMLA
			if rng.Intn(4) == 0 {
				b.VecMulAcc(lane(), v(), v(), v(), v())
			} else {
				b.Vec3(vec3[rng.Intn(len(vec3))], lane(), v(), v(), v())
			}
		case p < 85: // a third of the memory draws move 128 bits
			if rng.Intn(3) == 0 {
				b.VecLoad(v(), r(), vaddr())
			} else {
				b.Load(r(), r(), addr())
			}
		case p < 95:
			if rng.Intn(3) == 0 {
				b.VecStore(v(), r(), vaddr())
			} else {
				b.Store(r(), r(), addr())
			}
		default: // fresh constant breaks chains and varies operand widths
			b.MovImm(r(), rng.Uint64()>>uint(rng.Intn(64)))
		}
	}
	return b.Build()
}

// Digest pins a run's timing: its cycle count and the first 16 hex digits of
// the SHA-256 of its rendered event stream, a NUL byte and its metrics JSON.
type Digest struct {
	Cycles int64
	Hash   string
}

// String renders the digest as its golden-file field, cycles:hash.
func (d Digest) String() string { return fmt.Sprintf("%d:%s", d.Cycles, d.Hash) }

// Compare runs prog on the pair's configuration, checks its committed state
// against the architectural interpreter, and returns the run's digest. The
// error names the first divergence.
func Compare(p Pair, prog *isa.Program) (Digest, error) {
	sim, err := ooo.New(p.Config, prog)
	if err != nil {
		return Digest{}, fmt.Errorf("%s: %w", p.Name, err)
	}
	buf := &obs.Buffer{}
	sim.SetObserver(buf)
	res, err := sim.Run()
	if err != nil {
		return Digest{}, fmt.Errorf("%s: %w", p.Name, err)
	}
	h := sha256.New()
	io.WriteString(h, obs.FormatStream(buf.Events(), sim.Clock().TicksPerCycle()))
	h.Write([]byte{0})
	if err := obs.WriteJSON(h, res.Metrics(prog.Name)); err != nil {
		return Digest{}, fmt.Errorf("%s: %w", p.Name, err)
	}
	d := Digest{Cycles: res.Cycles, Hash: hex.EncodeToString(h.Sum(nil))[:16]}
	if err := checkArch(prog, res); err != nil {
		return d, fmt.Errorf("%s: %s: %w", p.Name, prog.Name, err)
	}
	return d, nil
}

// checkArch compares a run's committed state with the interpreter's.
func checkArch(prog *isa.Program, res *ooo.Result) error {
	want := arch.Run(prog)
	if res.Instructions != want.Steps {
		return fmt.Errorf("committed %d instructions, interpreter %d", res.Instructions, want.Steps)
	}
	if f := want.Flags(); res.FinalFlags != f {
		return fmt.Errorf("final flags %+v, interpreter %+v", res.FinalFlags, f)
	}
	if len(res.FinalRegs) != isa.NumIntRegs+isa.NumVecRegs {
		return fmt.Errorf("final register file holds %d registers", len(res.FinalRegs))
	}
	for i := 0; i < isa.NumIntRegs; i++ {
		for _, r := range []isa.Reg{isa.R(i), isa.V(i)} {
			if got, ok := res.FinalRegs[r]; !ok || got != want.Reg(r) {
				return fmt.Errorf("final %v is %v, interpreter %v", r, got, want.Reg(r))
			}
		}
	}
	wm := want.Mem.Snapshot()
	if len(res.FinalMem) != len(wm) {
		return fmt.Errorf("final memory holds %d words, interpreter %d", len(res.FinalMem), len(wm))
	}
	for a, v := range res.FinalMem {
		if w, ok := wm[a]; !ok || w != v {
			return fmt.Errorf("final mem[%#x] is %#x, interpreter %#x (present %v)", a, v, w, ok)
		}
	}
	return nil
}
