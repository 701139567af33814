package trace

// Flat-trace decode: every static fact the scheduler's hot loop needs about
// an instruction, computed exactly once per Program and laid out as dense
// struct-of-arrays buffers. The per-simulation decode work the pipeline used
// to repeat — class lookups, FU-pool routing, source/destination rename
// indices — becomes a handful of sequential slice reads, and because a
// Decoded view is immutable after construction, campaign workers evaluating
// different grid/sweep/chaos cells of the same benchmark share one decode
// instead of rebuilding programs per cell (DecodeCached).
//
// The layout follows the dense, index-addressed scheduler-state argument of
// Diavastos & Carlson (PAPERS.md): parallel slices indexed by trace position,
// no pointers, nothing to chase.
//
// The read side is under the scheduler's zero-allocation contract (the
// hotpath analyzer): Len and AddrRange carry the //redsoc:hotpath marker,
// and the marked pipeline stages in internal/ooo index the columns
// directly — plain slice loads. Decode and the cache miss path allocate by
// design (once per program) and therefore stay unmarked: a marked function
// that reaches them is a bug the analyzer reports.

import (
	"redsoc/internal/isa"
	"redsoc/internal/mem"
)

// Pool routes an instruction to its functional-unit pool, partitioned per
// Table I of the paper. The values mirror internal/ooo's fuKind order (a test
// there pins the correspondence).
const (
	PoolALU uint8 = iota
	PoolSIMD
	PoolFP
	PoolMEM
	NumPools
)

// poolOf mirrors ooo.fuKindOf.
func poolOf(class isa.Class) uint8 {
	switch class {
	case isa.ClassSIMD, isa.ClassSIMDMul:
		return PoolSIMD
	case isa.ClassFP:
		return PoolFP
	case isa.ClassLoad, isa.ClassStore:
		return PoolMEM
	default:
		return PoolALU
	}
}

// InstrBits packs the per-instruction boolean facts the scheduler branches on.
type InstrBits uint16

const (
	// BitLoad / BitStore / BitMem classify memory operations.
	BitLoad InstrBits = 1 << iota
	BitStore
	BitMem
	// BitSingleCycle marks baseline single-cycle (transparent-capable) ops.
	BitSingleCycle
	// BitBranch marks OpB; BitTaken carries its pre-resolved direction.
	BitBranch
	BitTaken
	// BitHasDest marks instructions that rename a destination (DestReg valid).
	BitHasDest
	// BitSetFlagsExtra marks SetFlags instructions whose opcode does not
	// already write flags as its only effect: they rename Flags in addition
	// to their destination.
	BitSetFlagsExtra
	// BitVecAccess marks memory operations touching 16 bytes (vector
	// register data); BitDstVec marks loads into a vector register.
	BitVecAccess
	BitDstVec
)

// NoReg marks an absent register slot in Dest and Srcs (rename indices are
// < isa.NumRenamedRegs, far below 0xFF).
const NoReg = 0xFF

// MaxSrcs bounds renamed sources per instruction: Src1, Src2, Src3 and the
// implicit carry/flags input.
const MaxSrcs = 4

// Decoded is the flat, read-only struct-of-arrays view of one Program. All
// slices have length Prog.Len() and are indexed by trace position. A Decoded
// must never be mutated after Decode returns: simulators and campaign workers
// read it concurrently without synchronization.
//
// The columns cost 14 bytes per instruction (Class, Pool, Dest and NSrc one
// each, Bits two, Srcs and Roles four each). Nothing the instruction itself
// already carries is copied here: the memory range a load or store touches
// is derived from its Addr by AddrRange at dispatch.
type Decoded struct {
	Prog *isa.Program

	// Class and Pool partition each op by timing behaviour and FU routing.
	Class []isa.Class
	Pool  []uint8
	// Bits holds the packed boolean facts above.
	Bits []InstrBits
	// Dest is the rename index of DestReg() (NoReg when the instruction
	// renames nothing). Pure-flag writers (CMP/TST/...) carry the flags
	// rename index here, exactly as DestReg resolves them.
	Dest []uint8
	// NSrc counts renamed sources; Srcs[i][0:NSrc[i]] are their rename
	// indices in operand order (Src1, Src2, Src3, then Flags for
	// carry-consuming opcodes), NoReg-padded.
	NSrc []uint8
	Srcs [][MaxSrcs]uint8
	// Roles maps operand roles (Src1, Src2, Src3, FlagsIn) to the source
	// slot carrying that role, -1 when absent — the positional mapping the
	// execute stage routes operands through.
	Roles [][4]int8

	// Image is the dense, read-only initial memory image, shared by every
	// simulation of this program.
	Image *mem.Image
}

// Len returns the number of decoded instructions. The dispatch stage bounds
// its PC against this every cycle, so it sits on the per-cycle hot path.
//
//redsoc:hotpath
func (d *Decoded) Len() int { return len(d.Bits) }

// AddrRange returns the aligned [lo, hi) byte range a memory operation at
// addr touches: the 8-byte word holding addr, or 16 bytes from it when bits
// carries BitVecAccess. Both are zero when bits lacks BitMem.
//
//redsoc:hotpath
func AddrRange(addr uint64, bits InstrBits) (lo, hi uint64) {
	if bits&BitMem == 0 {
		return 0, 0
	}
	lo = addr &^ 7
	if bits&BitVecAccess != 0 {
		return lo, lo + 16
	}
	return lo, lo + 8
}

// Decode flattens a program. The result is immutable and safe for concurrent
// use by any number of simulators.
func Decode(p *isa.Program) *Decoded {
	n := len(p.Instrs)
	d := &Decoded{
		Prog:  p,
		Class: make([]isa.Class, n),
		Pool:  make([]uint8, n),
		Bits:  make([]InstrBits, n),
		Dest:  make([]uint8, n),
		NSrc:  make([]uint8, n),
		Srcs:  make([][MaxSrcs]uint8, n),
		Roles: make([][4]int8, n),
		Image: mem.NewImage(p.Mem),
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		class := in.Op.Class()
		d.Class[i] = class
		d.Pool[i] = poolOf(class)

		var bits InstrBits
		vec := in.Dst.IsVec() || in.Src3.IsVec()
		switch {
		case in.Op == isa.OpLDR:
			bits |= BitLoad | BitMem
		case in.Op == isa.OpSTR:
			bits |= BitStore | BitMem
		}
		if in.Op.SingleCycle() {
			bits |= BitSingleCycle
		}
		if in.Op == isa.OpB {
			bits |= BitBranch
			if in.Taken {
				bits |= BitTaken
			}
		}
		if bits&BitMem != 0 && vec {
			bits |= BitVecAccess
		}
		if in.Dst.IsVec() {
			bits |= BitDstVec
		}
		if in.SetFlags && !in.Op.WritesFlags() {
			bits |= BitSetFlagsExtra
		}

		d.Dest[i] = NoReg
		if dst := in.DestReg(); dst.Valid() {
			bits |= BitHasDest
			d.Dest[i] = uint8(dst.RenameIndex())
		}
		d.Bits[i] = bits

		d.Srcs[i] = [MaxSrcs]uint8{NoReg, NoReg, NoReg, NoReg}
		d.Roles[i] = [4]int8{-1, -1, -1, -1}
		slot := uint8(0)
		addSrc := func(role int, r isa.Reg) {
			d.Srcs[i][slot] = uint8(r.RenameIndex())
			d.Roles[i][role] = int8(slot)
			slot++
		}
		if in.Src1 != isa.RegNone {
			addSrc(0, in.Src1)
		}
		if in.Src2 != isa.RegNone {
			addSrc(1, in.Src2)
		}
		if in.Src3 != isa.RegNone {
			addSrc(2, in.Src3)
		}
		if in.Op.ReadsCarry() {
			addSrc(3, isa.Flags)
		}
		d.NSrc[i] = slot
	}
	return d
}

// decodeKey names a program's flat decode among the values derived from it.
type decodeKey struct{}

// DecodeCached returns the shared flat decode of p, building it at most once
// per program no matter how many simulators (on any number of goroutines)
// ask. The decode lives on p (isa.Derived), so campaign workers evaluating
// different grid/sweep/chaos cells of one benchmark share it through the
// program pointer, and it is collected with the program. The returned view
// is read-only; see Decoded.
func DecodeCached(p *isa.Program) *Decoded {
	return isa.Derived(p, decodeKey{}, Decode)
}
