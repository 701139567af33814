// Package difftest is the differential harness pinning the flat-trace/SoA
// scheduler (internal/ooo) bit-for-bit against its frozen pre-rewrite
// snapshot (internal/oooref). It generates random well-formed trace programs
// and demands that both engines produce byte-identical observable behavior:
// the rendered pipeline-event stream, the cycle count, the serialized metrics
// snapshot, and the final architectural state. Any divergence is a bug in the
// rewrite (or, rarely, a deliberate behavior change that must be applied to
// both packages — see the oooref package comment). The reference models
// only what these comparisons reach, so every Pair stays inside its scope.
package difftest

import (
	"fmt"
	"math/rand"
	"strings"

	"redsoc/internal/alu"
	"redsoc/internal/isa"
	"redsoc/internal/obs"
	"redsoc/internal/ooo"
	"redsoc/internal/oooref"
	"redsoc/internal/workload"
)

// Pair is one core/policy configuration. Both engines take the same
// ooo.Config, and the reference's is derived from it (RefConfig), so the
// pairing cannot drift.
//
// ArchOnly relaxes the comparison to architectural state (registers, memory,
// flags) plus the instruction count: it pairs a policy the frozen reference
// does not implement (loaddelay, speclsq) against the reference baseline,
// where cycles and event streams are policy-defined by construction but the
// committed state must still match exactly — the invariant every dynamic
// completion instant is forbidden from breaking.
type Pair struct {
	Name     string
	Config   ooo.Config
	ArchOnly bool
}

// RefConfig is the configuration the reference engine runs for the pair:
// the pair's own, or its baseline for an ArchOnly pair.
func (p Pair) RefConfig() ooo.Config {
	if p.ArchOnly {
		return p.Config.WithPolicy(ooo.PolicyBaseline)
	}
	return p.Config
}

// Pairs returns the configurations the harness diffs: every policy on the
// Small core (cheap, so every random program covers all of the schedulers)
// plus the Medium and Big cores under ReDSOC for capacity-pressure shapes.
// The dynamic-delay policies have no frozen counterpart and diff arch-only
// against the reference baseline.
func Pairs() []Pair {
	return []Pair{
		{Name: "small/baseline", Config: ooo.SmallConfig().WithPolicy(ooo.PolicyBaseline)},
		{Name: "small/redsoc", Config: ooo.SmallConfig().WithPolicy(ooo.PolicyRedsoc)},
		{Name: "small/mos", Config: ooo.SmallConfig().WithPolicy(ooo.PolicyMOS)},
		{Name: "medium/redsoc", Config: ooo.MediumConfig().WithPolicy(ooo.PolicyRedsoc)},
		{Name: "big/redsoc", Config: ooo.BigConfig().WithPolicy(ooo.PolicyRedsoc)},
		{Name: "small/loaddelay", Config: ooo.SmallConfig().WithPolicy(ooo.PolicyLoadDelay), ArchOnly: true},
		{Name: "small/speclsq", Config: ooo.SmallConfig().WithPolicy(ooo.PolicySpecLSQ), ArchOnly: true},
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
		case p < 85:
			b.Load(r(), r(), addr())
		case p < 95:
			b.Store(r(), r(), addr())
		default: // fresh constant breaks chains and varies operand widths
			b.MovImm(r(), rng.Uint64()>>uint(rng.Intn(64)))
		}
	}
	return b.Build()
}

// run executes prog on one engine-agnostic side and returns the rendered
// event stream, the serialized metrics snapshot and the result fields the
// comparison needs.
type sideResult struct {
	cycles       int64
	instructions int64
	stream       string
	metrics      string
	regs         map[isa.Reg]alu.Value
	mem          map[uint64]uint64
	flags        alu.Flags
}

func runNew(cfg ooo.Config, prog *isa.Program) (sideResult, error) {
	sim, err := ooo.New(cfg, prog)
	if err != nil {
		return sideResult{}, err
	}
	buf := &obs.Buffer{}
	sim.SetObserver(buf)
	res, err := sim.Run()
	if err != nil {
		return sideResult{}, err
	}
	var sb strings.Builder
	if err := obs.WriteJSON(&sb, res.Metrics(prog.Name, cfg.Name, cfg.Policy.String())); err != nil {
		return sideResult{}, err
	}
	return sideResult{
		cycles:       res.Cycles,
		instructions: res.Instructions,
		stream:       obs.FormatStream(buf.Events(), sim.Clock().TicksPerCycle()),
		metrics:      sb.String(),
		regs:         res.FinalRegs,
		mem:          res.FinalMem,
		flags:        res.FinalFlags,
	}, nil
}

func runRef(cfg ooo.Config, prog *isa.Program) (sideResult, error) {
	sim, err := oooref.New(cfg, prog)
	if err != nil {
		return sideResult{}, err
	}
	buf := &obs.Buffer{}
	sim.SetObserver(buf)
	res, err := sim.Run()
	if err != nil {
		return sideResult{}, err
	}
	var sb strings.Builder
	if err := obs.WriteJSON(&sb, res.Metrics(prog.Name, cfg.Name, cfg.Policy.String())); err != nil {
		return sideResult{}, err
	}
	return sideResult{
		cycles:       res.Cycles,
		instructions: res.Instructions,
		stream:       obs.FormatStream(buf.Events(), sim.Clock().TicksPerCycle()),
		metrics:      sb.String(),
		regs:         res.FinalRegs,
		mem:          res.FinalMem,
		flags:        res.FinalFlags,
	}, nil
}

// Compare runs prog through both engines of the pair and returns a non-nil
// error describing the first divergence, or nil when every observable is
// byte-identical. ArchOnly pairs skip the timing observables (cycles, event
// stream, metrics snapshot) — those are policy-defined — and still demand
// identical committed state and instruction counts.
func Compare(p Pair, prog *isa.Program) error {
	nw, err := runNew(p.Config, prog)
	if err != nil {
		return fmt.Errorf("%s: new engine: %w", p.Name, err)
	}
	rf, err := runRef(p.RefConfig(), prog)
	if err != nil {
		return fmt.Errorf("%s: ref engine: %w", p.Name, err)
	}
	if p.ArchOnly {
		if nw.instructions != rf.instructions {
			return fmt.Errorf("%s: %s: instruction count diverged: new %d, ref %d", p.Name, prog.Name, nw.instructions, rf.instructions)
		}
	} else {
		if nw.cycles != rf.cycles {
			return fmt.Errorf("%s: %s: cycle count diverged: new %d, ref %d", p.Name, prog.Name, nw.cycles, rf.cycles)
		}
		if nw.stream != rf.stream {
			return fmt.Errorf("%s: %s: event stream diverged at %s", p.Name, prog.Name, firstDiff(nw.stream, rf.stream))
		}
		if nw.metrics != rf.metrics {
			return fmt.Errorf("%s: %s: metrics snapshot diverged at %s", p.Name, prog.Name, firstDiff(nw.metrics, rf.metrics))
		}
	}
	if nw.flags != rf.flags {
		return fmt.Errorf("%s: %s: final flags diverged: new %+v, ref %+v", p.Name, prog.Name, nw.flags, rf.flags)
	}
	if len(nw.regs) != len(rf.regs) {
		return fmt.Errorf("%s: %s: final register file sizes diverged: %d vs %d", p.Name, prog.Name, len(nw.regs), len(rf.regs))
	}
	for reg, val := range nw.regs {
		if rv, ok := rf.regs[reg]; !ok || rv != val {
			return fmt.Errorf("%s: %s: final %v diverged: new %+v, ref %+v", p.Name, prog.Name, reg, val, rv)
		}
	}
	if len(nw.mem) != len(rf.mem) {
		return fmt.Errorf("%s: %s: final memory footprints diverged: %d vs %d words", p.Name, prog.Name, len(nw.mem), len(rf.mem))
	}
	for a, val := range nw.mem {
		if rv, ok := rf.mem[a]; !ok || rv != val {
			return fmt.Errorf("%s: %s: final mem[%#x] diverged: new %#x, ref %#x", p.Name, prog.Name, a, val, rv)
		}
	}
	return nil
}

// firstDiff locates the first line where two renderings disagree, quoting
// both sides with one line of leading context.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		av, bv := "<EOF>", "<EOF>"
		if i < len(al) {
			av = al[i]
		}
		if i < len(bl) {
			bv = bl[i]
		}
		if av != bv {
			ctx := ""
			if i > 0 {
				ctx = fmt.Sprintf("  both: %q\n", al[i-1])
			}
			return fmt.Sprintf("line %d:\n%s  new:  %q\n  ref:  %q", i+1, ctx, av, bv)
		}
	}
	return "no textual difference (length mismatch?)"
}
