package ooo

import (
	"reflect"
	"sync/atomic"

	"redsoc/internal/alu"
	"redsoc/internal/isa"
	"redsoc/internal/mem"
	"redsoc/internal/memo"
	"redsoc/internal/trace"
)

// Slack recycling never changes architectural results, so every run of a
// program — under any policy, on any core, at any threshold — normally ends
// in the same registers, flags and memory. Each program therefore has one
// canonical final state: the Result maps of the first fault-free run to
// finish, published once and never replaced. A later run whose committed
// state matches it (compared in place, without building anything) adopts
// its FinalRegs and FinalMem maps instead of building its own; a run whose
// state differs builds and keeps its own, so every ArchEqual and
// reference-memory check still sees the divergence. Which run publishes can
// vary with scheduling across goroutines, but only map identity depends on
// it, never content. Shared maps are read-only: nothing may write a Result's
// FinalRegs or FinalMem (an audit build checks this at every adoption).

// finalState is one program's canonical final architectural state: the
// published maps and the copies they are compared against.
type finalState struct {
	FinalRegs  map[isa.Reg]alu.Value
	FinalMem   map[uint64]uint64
	FinalFlags alu.Flags

	regs [archFileRegs]alu.Value // the integer and vector files, by rename index
	mem  *mem.Frozen
}

// archFileRegs counts the integer and vector registers: rename indices
// [0, archFileRegs) name them, the flags register follows.
const archFileRegs = isa.NumIntRegs + isa.NumVecRegs

// finalSlot holds a program's canonical state once some run publishes it.
type finalSlot struct{ p atomic.Pointer[finalState] }

func newFinalSlot(*trace.Decoded) *finalSlot { return &finalSlot{} }

// finalSlots maps a program's shared decode to its canonical-state slot.
// Keying on the decode ties a canonical state to one immutable view of one
// program. The cache is bounded so that a long-running process minting
// programs keeps only the most recent ones: a campaign reruns one suite of
// at most fifteen programs, so sixteen slots hold every program it
// revisits. A program evicted and run again simply publishes afresh. A
// larger bound only keeps stale states alive: at 128 slots, a serve process
// whose jobs each build their own suite peaked 13 MB higher.
var finalSlots = memo.New[*trace.Decoded, *finalSlot](maxFinalPrograms)

const maxFinalPrograms = 16

// captureArch sets the Result's architectural state: the program's
// canonical maps when the run ended in that state, otherwise maps of its
// own, which a fault-free run publishes as the canonical state if none is
// yet.
func (s *Simulator) captureArch() {
	slot := finalSlots.Get(s.dec, newFinalSlot)
	if f := slot.p.Load(); f != nil && s.endsIn(f) {
		s.adopt(f)
		return
	}
	own := &finalState{
		FinalRegs:  make(map[isa.Reg]alu.Value, archFileRegs),
		FinalMem:   s.memory.Snapshot(),
		FinalFlags: alu.UnpackFlags(s.archRegs[isa.Flags.RenameIndex()]),
		regs:       [archFileRegs]alu.Value(s.archRegs[:archFileRegs]),
	}
	for i := 0; i < isa.NumIntRegs; i++ {
		own.FinalRegs[isa.R(i)] = s.archRegs[isa.R(i).RenameIndex()]
	}
	for i := 0; i < isa.NumVecRegs; i++ {
		own.FinalRegs[isa.V(i)] = s.archRegs[isa.V(i).RenameIndex()]
	}
	if s.inject == nil {
		own.mem = s.memory.Freeze()
		if !slot.p.CompareAndSwap(nil, own) {
			if f := slot.p.Load(); s.endsIn(f) {
				// Another run published while this one built: adopt its
				// maps, so the program still has one copy.
				s.adopt(f)
				return
			}
		}
	}
	s.res.FinalRegs, s.res.FinalMem, s.res.FinalFlags = own.FinalRegs, own.FinalMem, own.FinalFlags
}

// endsIn reports whether the simulator's committed state is f's, exactly as
// capture would report it: the same register values, flags and memory
// snapshot.
func (s *Simulator) endsIn(f *finalState) bool {
	return [archFileRegs]alu.Value(s.archRegs[:archFileRegs]) == f.regs &&
		alu.UnpackFlags(s.archRegs[isa.Flags.RenameIndex()]) == f.FinalFlags &&
		s.memory.Matches(f.mem)
}

// adopt points the Result at the canonical state f.
func (s *Simulator) adopt(f *finalState) {
	s.audit.onAdoptFinal(s, f)
	s.res.FinalRegs, s.res.FinalMem, s.res.FinalFlags = f.FinalRegs, f.FinalMem, f.FinalFlags
}

// sameMap reports whether a and b are one map.
func sameMap[M ~map[K]V, K comparable, V any](a, b M) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}
