// Package workload builds the dynamic instruction streams the evaluation
// runs: real MiBench-style kernels (sub-package mibench), the Table II
// machine-learning kernels with NEON-like SIMD (sub-package ml), and
// synthetic SPEC-calibrated traces (sub-package spec). This package provides
// the Builder they all share: a tiny assembler that emits trace-form
// instructions (branches pre-resolved, memory addresses computed at build
// time) and maintains the initial memory image.
package workload

import (
	"fmt"

	"redsoc/internal/isa"
)

// Builder assembles a Program. Methods emit one dynamic instruction each and
// return the Builder for chaining. PCs are synthesized per *call site* label:
// use At(pc) or Label to group dynamic instances of the same static
// instruction (predictors index by PC).
type Builder struct {
	name   string
	full   [][]isa.Instruction // filled chunks of chunkLen instructions
	instrs []isa.Instruction   // the chunk being filled
	mem    map[uint64]uint64
	pc     uint64
	autoPC bool
}

// NewBuilder starts an empty program.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:   name,
		mem:    make(map[uint64]uint64),
		pc:     0x1000,
		autoPC: true,
	}
}

// At pins the PC of subsequently emitted instructions (use inside loops so
// every iteration of a static instruction shares its PC). Auto-increment
// resumes after Auto.
func (b *Builder) At(pc uint64) *Builder {
	b.pc = pc
	b.autoPC = false
	return b
}

// Auto resumes automatic PC advancement (4 bytes per instruction), starting
// past the last pinned PC.
func (b *Builder) Auto() *Builder {
	if !b.autoPC {
		b.pc += 4
	}
	b.autoPC = true
	return b
}

// emit appends one instruction, stamping its PC.
func (b *Builder) emit(in isa.Instruction) *Builder {
	in.PC = b.pc
	if b.autoPC {
		b.pc += 4
	}
	if len(b.instrs) == chunkLen {
		b.full = append(b.full, b.instrs)
		b.instrs = make([]isa.Instruction, 0, chunkLen)
	}
	b.instrs = append(b.instrs, in)
	return b
}

// chunkLen is the size of the chunks a Builder fills: Build copies them once
// into an exactly sized stream, where growing one slice by append would
// copy the whole stream at every growth step.
const chunkLen = 1024

// Op3 emits a three-register operation: op dst, src1, src2.
func (b *Builder) Op3(op isa.Op, dst, src1, src2 isa.Reg) *Builder {
	return b.emit(isa.Instruction{Op: op, Dst: dst, Src1: src1, Src2: src2})
}

// OpImm emits op dst, src1, #imm.
func (b *Builder) OpImm(op isa.Op, dst, src1 isa.Reg, imm uint64) *Builder {
	return b.emit(isa.Instruction{Op: op, Dst: dst, Src1: src1, Imm: imm})
}

// MovImm emits MOV dst, #imm.
func (b *Builder) MovImm(dst isa.Reg, imm uint64) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpMOV, Dst: dst, Imm: imm})
}

// Mov emits MOV dst, src.
func (b *Builder) Mov(dst, src isa.Reg) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpMOV, Dst: dst, Src2: src})
}

// Shift emits a shift-class op with an immediate distance: op dst, src, #amt.
func (b *Builder) Shift(op isa.Op, dst, src isa.Reg, amt uint8) *Builder {
	return b.emit(isa.Instruction{Op: op, Dst: dst, Src1: src, ShiftAmt: amt})
}

// ShiftedArith emits ADD-LSR / SUB-ROR: op dst, src1, src2 shifted by amt.
func (b *Builder) ShiftedArith(op isa.Op, dst, src1, src2 isa.Reg, amt uint8) *Builder {
	return b.emit(isa.Instruction{Op: op, Dst: dst, Src1: src1, Src2: src2, ShiftAmt: amt})
}

// Cmp emits CMP src1, src2 (flags only).
func (b *Builder) Cmp(src1, src2 isa.Reg) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpCMP, Src1: src1, Src2: src2})
}

// CmpImm emits CMP src1, #imm.
func (b *Builder) CmpImm(src1 isa.Reg, imm uint64) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpCMP, Src1: src1, Imm: imm})
}

// Branch emits a resolved branch consuming the flags, with its actual
// direction (the core models mispredict redirects against it).
func (b *Builder) Branch(taken bool) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpB, Src1: isa.Flags, Taken: taken})
}

// BranchOn emits a resolved CBZ/CBNZ-style branch consuming a register.
func (b *Builder) BranchOn(cond isa.Reg, taken bool) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpB, Src1: cond, Taken: taken})
}

// Load emits LDR dst, [addr] with base register for dependency shape.
func (b *Builder) Load(dst, base isa.Reg, addr uint64) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpLDR, Dst: dst, Src1: base, Addr: addr})
}

// Store emits STR data, [addr].
func (b *Builder) Store(data, base isa.Reg, addr uint64) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpSTR, Src1: base, Src3: data, Addr: addr})
}

// MulAcc emits MLA dst, src1, src2, acc.
func (b *Builder) MulAcc(dst, src1, src2, acc isa.Reg) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpMLA, Dst: dst, Src1: src1, Src2: src2, Src3: acc})
}

// Vec3 emits a three-register SIMD op with the given lane width.
func (b *Builder) Vec3(op isa.Op, lane isa.Lane, dst, src1, src2 isa.Reg) *Builder {
	return b.emit(isa.Instruction{Op: op, Lane: lane, Dst: dst, Src1: src1, Src2: src2})
}

// VecImm emits a SIMD op with a splatted immediate second operand.
func (b *Builder) VecImm(op isa.Op, lane isa.Lane, dst, src1 isa.Reg, imm uint64) *Builder {
	return b.emit(isa.Instruction{Op: op, Lane: lane, Dst: dst, Src1: src1, Imm: imm})
}

// VecShift emits a SIMD shift by immediate.
func (b *Builder) VecShift(op isa.Op, lane isa.Lane, dst, src isa.Reg, amt uint8) *Builder {
	return b.emit(isa.Instruction{Op: op, Lane: lane, Dst: dst, Src1: src, ShiftAmt: amt})
}

// VecMulAcc emits VMLA dst, src1, src2 accumulating into acc.
func (b *Builder) VecMulAcc(lane isa.Lane, dst, src1, src2, acc isa.Reg) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpVMLA, Lane: lane, Dst: dst, Src1: src1, Src2: src2, Src3: acc})
}

// VecLoad and VecStore move 128-bit values.
func (b *Builder) VecLoad(dst, base isa.Reg, addr uint64) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpLDR, Dst: dst, Src1: base, Addr: addr})
}

func (b *Builder) VecStore(data, base isa.Reg, addr uint64) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpSTR, Src1: base, Src3: data, Addr: addr})
}

// Raw emits a fully specified instruction (escape hatch).
func (b *Builder) Raw(in isa.Instruction) *Builder { return b.emit(in) }

// InitMem seeds the initial memory image with a 64-bit word.
func (b *Builder) InitMem(addr, value uint64) *Builder {
	b.mem[addr&^7] = value
	return b
}

// InitMem128 seeds a 128-bit value.
func (b *Builder) InitMem128(addr, lo, hi uint64) *Builder {
	b.mem[addr&^7] = lo
	b.mem[(addr&^7)+8] = hi
	return b
}

// Len returns the instruction count so far.
func (b *Builder) Len() int { return len(b.full)*chunkLen + len(b.instrs) }

// Build finalizes the program.
func (b *Builder) Build() *isa.Program {
	if b.Len() == 0 {
		panic(fmt.Sprintf("workload: program %q is empty", b.name)) //lint:allow panicpolicy audited invariant: an empty program is a builder bug, not an input
	}
	instrs := make([]isa.Instruction, 0, b.Len())
	for _, c := range b.full {
		instrs = append(instrs, c...)
	}
	return &isa.Program{Name: b.name, Instrs: append(instrs, b.instrs...), Mem: b.mem}
}
