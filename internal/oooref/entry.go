package oooref

import (
	"redsoc/internal/alu"
	"redsoc/internal/core"
	"redsoc/internal/isa"
	"redsoc/internal/timing"
)

// fuKind partitions functional units per Table I.
type fuKind uint8

const (
	fuALU fuKind = iota
	fuSIMD
	fuFP
	fuMEM
	numFUKinds
)

func fuKindOf(class isa.Class) fuKind {
	switch class {
	case isa.ClassSIMD, isa.ClassSIMDMul:
		return fuSIMD
	case isa.ClassFP:
		return fuFP
	case isa.ClassLoad, isa.ClassStore:
		return fuMEM
	default:
		return fuALU
	}
}

// transparentCapable reports whether the op can evaluate through the
// transparent bypass network: the single-cycle scalar ALU and integer SIMD
// operations (paper Sec. III/V). Memory, FP, MUL/DIV are "true synchronous".
func transparentCapable(op isa.Op) bool {
	return op.SingleCycle()
}

type entryState uint8

const (
	stWaiting entryState = iota
	stIssued
	stCommitted
)

// srcRef is one renamed source operand: either an in-flight producer or a
// value captured from committed architectural state at rename.
type srcRef struct {
	reg      isa.Reg
	producer *entry // nil when the value was ready at rename
	value    alu.Value
}

// entry is the in-flight state of one dynamic instruction: its ROB slot,
// reservation-station fields (including the slack-aware additions of
// Fig. 7/8) and execution outcome.
type entry struct {
	in  *isa.Instruction
	seq int64 // dynamic sequence number: age and tag

	srcs [4]srcRef
	nsrc int
	// Positional mapping from instruction operand roles into srcs (-1 if
	// the role is absent): Src1, Src2, Src3, Flags.
	iSrc1, iSrc2, iSrc3, iFlags int8

	// est is the decode-time slack estimate; exTicks may be corrected on an
	// aggressive width misprediction.
	est     core.Estimate
	exTicks timing.Ticks

	// Operational design: predicted last-arriving source (index into srcs)
	// and the corresponding grandparent tag handed over via the RAT.
	lastIdx   int
	gp        *entry
	multiSrc  bool // >= 2 in-flight producers at rename (prediction counted)
	validated bool // after a tag misprediction, fall back to all-tag wakeup
	obsWoke   bool // wakeup event already emitted for the current request

	state          entryState
	broadcastCycle int64 // select cycle at which (tag, CI) went on the bus; -1 = not yet
	estComp        timing.Ticks
	sched          core.Schedule
	fu             fuKind

	// Razor-style recovery. trueComp is the instant the value is actually
	// stable and latched — equal to sched.Comp unless the evaluation overran
	// the broadcast CI; violated marks a detected timing violation that was
	// recovered by selective reissue.
	trueComp timing.Ticks
	violated bool

	// Memory.
	memDeps []*entry // older overlapping stores this load must respect
	memLat  int
	isLoad  bool
	isStore bool

	// Execution outcome.
	result   alu.Value
	flagsOut alu.Flags
	delayPS  int

	// Transparent-sequence accounting.
	chainLen int32
	extended bool

	fused   bool // MOS: executed piggybacked on its producer's cycle
	replays int32

	// Scheduler bookkeeping for the tag-indexed wakeup and the entry arena.
	//
	// waiters is this entry's consumer list: waiting entries registered at
	// dispatch to be re-examined when this entry broadcasts (and, for
	// stores, when it commits — the memory-dependence wakeup). inReady marks
	// membership in the scheduler's ready set (or its pending wake buffer),
	// so multiple same-cycle broadcasts enqueue a consumer once. refs counts
	// incoming references (source operand, grandparent tag, memory
	// dependence, front-end redirect); an entry returns to the arena only
	// once it has committed and refs reaches zero — see arena.go for the
	// recycle-safety rule.
	waiters []*entry
	inReady bool
	refs    int32
}

// storeOutcome latches an execution outcome into the entry. It is separate
// from execute so speculative evaluations (MOS fusion probes) can inspect an
// outcome without mutating reservation-station state.
func (e *entry) storeOutcome(out alu.Outcome) {
	e.result = out.Result
	e.flagsOut = out.FlagsOut
	e.delayPS = out.DelayPS
}

// srcValue reads a resolved source operand; the producer (if any) must have
// executed.
func (e *entry) srcValue(i int) alu.Value {
	s := &e.srcs[i]
	if s.producer == nil {
		return s.value
	}
	if s.reg.IsFlags() {
		return s.producer.flagsOut.Pack()
	}
	return s.producer.result
}

// addrRange returns the [lo, hi) byte range a memory op touches, for
// overlap-based store-load ordering. Vector accesses touch 16 bytes.
func addrRange(in *isa.Instruction) (lo, hi uint64) {
	lo = in.Addr &^ 7
	size := uint64(8)
	if in.Dst.IsVec() || in.Src3.IsVec() {
		size = 16
	}
	return lo, lo + size
}

func rangesOverlap(aLo, aHi, bLo, bHi uint64) bool {
	return aLo < bHi && bLo < aHi
}

// fuPool tracks per-unit occupancy as busy-until cycle bounds (exclusive).
type fuPool struct {
	busyUntil []int64
}

func newFUPool(n int) *fuPool {
	return &fuPool{busyUntil: make([]int64, n)}
}

// free returns the number of units available for an execution window
// starting at cycle.
func (p *fuPool) free(cycle int64) int {
	n := 0
	for _, b := range p.busyUntil {
		if b <= cycle {
			n++
		}
	}
	return n
}

// allocate reserves one unit for [cycle, cycle+cycles), returning the unit
// index claimed and whether a unit was available. Scanning from unit 0 keeps
// allocation deterministic and gives the audit layer a stable per-unit
// identity.
func (p *fuPool) allocate(cycle int64, cycles int) (int, bool) {
	for i, b := range p.busyUntil {
		if b <= cycle {
			p.busyUntil[i] = cycle + int64(cycles)
			return i, true
		}
	}
	return -1, false
}
