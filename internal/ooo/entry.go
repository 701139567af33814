package ooo

import (
	"redsoc/internal/alu"
	"redsoc/internal/core"
	"redsoc/internal/fault"
	"redsoc/internal/isa"
	"redsoc/internal/timing"
	"redsoc/internal/trace"
)

// fuKind partitions functional units per Table I. The values mirror
// trace.Pool* (a test pins the correspondence), so the flat decode's Pool
// column routes directly.
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

// none marks an absent entry index (slab indices are >= 0) wherever the old
// pointer representation used nil.
const none int32 = -1

// flagsRenameIdx is isa.Flags.RenameIndex() as a constant: the last slot of
// the flat rename table.
const flagsRenameIdx = isa.NumRenamedRegs - 1

// srcRef is one renamed source operand: either an in-flight producer (a slab
// index) or a value captured from committed architectural state at rename.
// Indices instead of *entry pointers keep the slab pointer-free on the rename
// path, so steady-state stores emit no GC write barriers.
type srcRef struct {
	idx   uint8 // rename index of the operand register
	prod  int32 // slab index of the in-flight producer; none when captured
	value alu.Value
}

// entry is the in-flight state of one dynamic instruction: its ROB slot,
// reservation-station fields (including the slack-aware additions of
// Fig. 7/8) and execution outcome. Entries live in the Simulator's dense slab
// and reference each other exclusively by slab index; the static facts about
// the instruction (class, FU routing, operand roles, address range) are
// cached from the program's flat trace.Decoded view at dispatch, so the hot
// loop never touches isa.Instruction.
type entry struct {
	ti  int32 // trace index into the program / its Decoded view
	seq int64 // dynamic sequence number: age and tag

	// Static facts cached from the Decoded columns at dispatch.
	op    isa.Op
	class isa.Class
	bits  trace.InstrBits
	dest  uint8 // destination rename index (trace.NoReg when absent)
	pc    uint64
	addr  uint64 // raw effective address (memory ops)
	// Aligned [addrLo, addrHi) byte range for overlap-based store-load
	// ordering; zero for non-memory ops.
	addrLo, addrHi uint64

	srcs [4]srcRef
	nsrc uint8
	// Positional mapping from instruction operand roles into srcs (-1 if
	// the role is absent): Src1, Src2, Src3, Flags.
	iSrc1, iSrc2, iSrc3, iFlags int8

	// est is the decode-time slack estimate; exTicks may be corrected on an
	// aggressive width misprediction.
	est     core.Estimate
	exTicks timing.Ticks

	// Operational design: predicted last-arriving source (index into srcs)
	// and the corresponding grandparent tag handed over via the map table.
	lastIdx   int8
	gp        int32
	multiSrc  bool // >= 2 in-flight producers at rename (prediction counted)
	validated bool // after a tag misprediction, fall back to all-tag wakeup
	obsWoke   bool // wakeup event already emitted for the current request

	state          entryState
	broadcastCycle int64 // select cycle at which (tag, CI) went on the bus; -1 = not yet
	estComp        timing.Ticks
	sched          core.Schedule
	fu             fuKind

	// Fault injection and Razor-style recovery. trueComp is the instant the
	// value is actually stable and latched — equal to sched.Comp except while
	// an injected fault makes the broadcast CI a lie; faulted records which
	// fault classes hit this entry; violated marks a detected timing violation
	// that was recovered by selective reissue.
	trueComp timing.Ticks
	faulted  fault.Bit
	violated bool

	// Memory.
	memDep  int32 // youngest older overlapping store this load must respect
	memLat  int
	isLoad  bool
	isStore bool

	// Execution outcome.
	result      alu.Value
	flagsOut    alu.Flags
	writesFlags bool
	actualWidth isa.WidthClass
	delayPS     int

	// Transparent-sequence accounting.
	chainLen int32
	extended bool

	fused   bool // MOS: executed piggybacked on its producer's cycle
	replays int32

	// Scheduler bookkeeping for the tag-indexed wakeup and the entry slab.
	//
	// waiters is this entry's consumer list: waiting entries registered at
	// dispatch to be re-examined when this entry broadcasts (and, for
	// stores, when it commits — the memory-dependence wakeup). Consumers,
	// EGPW grandchildren and dependent loads all append at their own
	// dispatch, so the list is ascending by seq; tryFuse probes it in that
	// order. inReady marks membership in the scheduler's ready set (or its
	// pending wake buffer), so multiple same-cycle broadcasts enqueue a
	// consumer once. refs counts incoming references (source operand,
	// grandparent tag, memory dependence, front-end redirect); an entry
	// returns to the free list only once it has committed and refs reaches
	// zero — see arena.go for the recycle-safety rule.
	waiters []int32
	inReady bool
	refs    int32

	// rsSlot is this entry's position in the reservation-station list while
	// waiting, maintained by the swap-removal in rsRemove. RS order is
	// consequently arbitrary; consumers that need age order (tryFuse) select
	// by seq explicitly.
	rsSlot int32
}

// storeOutcome latches an execution outcome into the entry. It is separate
// from execute so speculative evaluations (MOS fusion probes) can inspect an
// outcome without mutating reservation-station state.
func (e *entry) storeOutcome(out alu.Outcome) {
	e.result = out.Result
	e.flagsOut = out.FlagsOut
	e.writesFlags = out.WritesFlags
	e.actualWidth = out.ActualWidth
	e.delayPS = out.DelayPS
}

// srcValue reads a resolved source operand; the producer (if any) must have
// executed.
//
//redsoc:hotpath
func (s *Simulator) srcValue(e *entry, i int) alu.Value {
	r := &e.srcs[i]
	if r.prod == none {
		return r.value
	}
	p := s.ent(r.prod)
	if r.idx == flagsRenameIdx {
		return p.flagsOut.Pack()
	}
	return p.result
}

func rangesOverlap(aLo, aHi, bLo, bHi uint64) bool {
	return aLo < bHi && bLo < aHi
}

// fuPool tracks per-unit occupancy as busy-until cycle bounds (exclusive).
type fuPool struct {
	busyUntil []int64
}

// reset sizes the pool to n idle units, reusing its table when it is large
// enough.
func (p *fuPool) reset(n int) {
	if cap(p.busyUntil) < n {
		p.busyUntil = make([]int64, n)
	} else {
		p.busyUntil = p.busyUntil[:n]
		clear(p.busyUntil)
	}
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

// size returns the pool's unit count.
func (p *fuPool) size() int { return len(p.busyUntil) }
