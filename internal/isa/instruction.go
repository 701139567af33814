package isa

import (
	"fmt"

	"redsoc/internal/memo"
)

// Reg names an architectural register. The integer file holds R0..R31, the
// vector file V0..V31 (128-bit), and Flags is the NZCV condition register,
// renamed like any other destination. The zero value is RegNone, so struct
// literals that leave operand fields unset mean "no operand".
type Reg uint8

const (
	// RegNone marks an absent operand; it is the zero value of Reg.
	RegNone Reg = 0

	// NumIntRegs and NumVecRegs size the two architectural files.
	NumIntRegs = 32
	NumVecRegs = 32

	// intBase and vecBase offset register names inside the Reg space.
	intBase = 1
	vecBase = 65

	// Flags is the NZCV condition-code register.
	Flags Reg = 128

	// NumRenamedRegs is the size of a flat rename table covering integer
	// registers, vector registers and the flags register.
	NumRenamedRegs = NumIntRegs + NumVecRegs + 1
)

// R returns the name of integer register n.
func R(n int) Reg {
	if n < 0 || n >= NumIntRegs {
		panic(fmt.Sprintf("isa: integer register R%d out of range", n)) //lint:allow panicpolicy audited invariant: workloads name registers with compile-time constants
	}
	return Reg(intBase + n)
}

// V returns the name of vector register n.
func V(n int) Reg {
	if n < 0 || n >= NumVecRegs {
		panic(fmt.Sprintf("isa: vector register V%d out of range", n)) //lint:allow panicpolicy audited invariant: workloads name registers with compile-time constants
	}
	return Reg(vecBase + n)
}

// IsInt reports whether r names an integer register.
func (r Reg) IsInt() bool { return r >= intBase && r < intBase+NumIntRegs }

// IsVec reports whether r names a vector register.
func (r Reg) IsVec() bool { return r >= vecBase && r < vecBase+NumVecRegs }

// IsFlags reports whether r is the condition-code register.
func (r Reg) IsFlags() bool { return r == Flags }

// Valid reports whether r names any register at all.
func (r Reg) Valid() bool { return r.IsInt() || r.IsVec() || r.IsFlags() }

// RenameIndex flattens r into [0, NumRenamedRegs) for rename-table indexing.
func (r Reg) RenameIndex() int {
	switch {
	case r.IsInt():
		return int(r - intBase)
	case r.IsVec():
		return NumIntRegs + int(r-vecBase)
	case r.IsFlags():
		return NumIntRegs + NumVecRegs
	}
	panic(fmt.Sprintf("isa: RenameIndex of invalid register %d", uint8(r))) //lint:allow panicpolicy audited invariant: unreachable for any register built via R/V/Flags
}

// String returns the assembler name of the register.
func (r Reg) String() string {
	switch {
	case r.IsInt():
		return fmt.Sprintf("R%d", int(r-intBase))
	case r.IsVec():
		return fmt.Sprintf("V%d", int(r-vecBase))
	case r.IsFlags():
		return "FLAGS"
	case r == RegNone:
		return "-"
	}
	return fmt.Sprintf("Reg(%d)", uint8(r))
}

// Lane is the element width of a SIMD operation, in bits. Scalar operations
// use Lane0.
type Lane uint8

const (
	Lane0  Lane = 0  // not a SIMD op
	Lane8  Lane = 8  // 16 x 8-bit elements
	Lane16 Lane = 16 // 8 x 16-bit elements
	Lane32 Lane = 32 // 4 x 32-bit elements
	Lane64 Lane = 64 // 2 x 64-bit elements
)

// Elems returns the number of elements a 128-bit vector holds at this lane
// width, or 0 for Lane0.
func (l Lane) Elems() int {
	if l == Lane0 {
		return 0
	}
	return 128 / int(l)
}

// Instruction is one dynamic (trace-form) instruction. Branches are
// pre-resolved; memory operations carry their effective address.
//
// The flexible second operand follows the ARM model: if Src2 is a register it
// supplies Op2, otherwise Imm does; for shift-class and shifted-arithmetic
// opcodes ShiftAmt gives the (immediate) shift distance applied to Op2.
type Instruction struct {
	// The fields run widest first, so the struct packs into 40 bytes with
	// no interior padding: three words, then nine single bytes. It carries
	// no sequence number; an instruction's dynamic sequence number is its
	// index in Program.Instrs.

	// PC is the static program counter, used to index predictors.
	PC uint64

	Imm uint64 // immediate Op2 when Src2 == RegNone

	// Addr is the effective address of a memory operation. The trace builder
	// computes it so the cache model sees the true reference stream without
	// the simulator re-deriving addressing arithmetic.
	Addr uint64

	Op  Op
	Dst Reg // destination (RegNone for stores, branches, pure-flag ops)

	Src1 Reg // first operand register (RegNone if unused)
	Src2 Reg // second operand register (RegNone if Imm is used)
	Src3 Reg // third operand (MLA/VMLA accumulator, STR data)

	ShiftAmt uint8 // immediate shift distance for shift-class/shifted-arith ops

	Lane Lane // SIMD element width (Lane0 for scalar ops)

	// SetFlags additionally writes the NZCV register (ADDS/SUBS style).
	SetFlags bool

	// Taken is the resolved direction of an OpB branch. The trace is
	// correct-path only; the core consults its branch predictor against
	// Taken to model front-end redirect stalls.
	Taken bool
}

// DestReg returns the register the instruction renames, accounting for
// pure-flag writers: TST/TEQ/CMP/CMN rename Flags, not Dst.
func (in *Instruction) DestReg() Reg {
	if in.Op.WritesFlags() {
		return Flags
	}
	return in.Dst
}

// Sources appends the registers the instruction reads to dst and returns it.
// Order: Src1, Src2, Src3, then Flags when the opcode consumes carry.
func (in *Instruction) Sources(dst []Reg) []Reg {
	if in.Src1 != RegNone {
		dst = append(dst, in.Src1)
	}
	if in.Src2 != RegNone {
		dst = append(dst, in.Src2)
	}
	if in.Src3 != RegNone {
		dst = append(dst, in.Src3)
	}
	if in.Op.ReadsCarry() {
		dst = append(dst, Flags)
	}
	return dst
}

// String formats the instruction roughly as assembler.
func (in *Instruction) String() string {
	s := in.Op.String()
	if in.Lane != Lane0 {
		s += fmt.Sprintf(".%d", in.Lane)
	}
	if in.Dst != RegNone {
		s += " " + in.Dst.String()
	}
	if in.Src1 != RegNone {
		s += ", " + in.Src1.String()
	}
	switch {
	case in.Src2 != RegNone:
		s += ", " + in.Src2.String()
	case in.Op.Class() == ClassShift:
		// The immediate shift distance is rendered below.
	case !in.Op.IsMem() && in.Op != OpB:
		s += fmt.Sprintf(", #%d", in.Imm)
	}
	if in.ShiftAmt != 0 {
		s += fmt.Sprintf(", #%d", in.ShiftAmt)
	}
	if in.Op.IsMem() {
		s += fmt.Sprintf(" [0x%x]", in.Addr)
	}
	return s
}

// Program is a named dynamic instruction stream plus its initial data image.
// A Program is immutable once built and must not be copied after first use.
type Program struct {
	Name   string
	Instrs []Instruction
	// Mem is the initial memory image; the simulator copies it before a run
	// so a Program can be executed repeatedly.
	Mem map[uint64]uint64

	// derived holds the values other packages derive from the program (see
	// Derived). It is unexported, so encoding/json and every digest of a
	// program ignore it.
	derived memo.Map
}

// Len returns the number of dynamic instructions.
func (p *Program) Len() int { return len(p.Instrs) }

// Derived returns the value build derives from p under key, building it at
// most once per program and key: the flat trace decode, the workload
// digests, the canonical final state. Because the value hangs off the
// program, it is shared by every user of the program and collected with
// it, with no process-wide cache to bound or evict. Concurrent first calls
// share one build, a hit allocates nothing, and a build that panics caches
// nothing (see memo.Get). Keys follow context.Context's convention: each
// package keys with a type of its own, so packages cannot collide, and one
// key type always derives one value type.
func Derived[K comparable, V any](p *Program, key K, build func(*Program) V) V {
	return memo.Get(&p.derived, key, func(K) V { return build(p) })
}
