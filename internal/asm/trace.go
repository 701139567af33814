package asm

import (
	"fmt"

	"redsoc/internal/alu"
	"redsoc/internal/arch"
	"redsoc/internal/isa"
	"redsoc/internal/mem"
)

// BasePC is the address of the first static instruction; each statement
// occupies 4 bytes, so the trace's PCs index predictors exactly like a real
// binary's would.
const BasePC = 0x1000

// DefaultMaxSteps bounds tracing of runaway loops.
const DefaultMaxSteps = 2_000_000

// TraceResult is the dynamic trace plus the final architectural state of the
// interpretation (for verifying the simulator against the interpreter).
type TraceResult struct {
	Prog *isa.Program
	// Regs holds the final integer register values; Vecs the final 128-bit
	// vector register values.
	Regs [isa.NumIntRegs]uint64
	Vecs [isa.NumVecRegs]alu.Value
	// Mem is the final memory image.
	Mem map[uint64]uint64
	// Steps is the dynamic instruction count (excluding HALT).
	Steps int
}

// Trace interprets the program from statement 0 until HALT (or falling off
// the end), emitting the dynamic instruction stream. maxSteps <= 0 uses
// DefaultMaxSteps.
func (p *Program) Trace(maxSteps int) (*TraceResult, error) {
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	// Functional execution is the architectural interpreter's; Trace only
	// lowers statements and resolves branches against its state.
	st := &arch.State{Mem: mem.NewMemoryFrom(p.mem)}
	out := &isa.Program{Name: p.Name, Mem: p.mem}

	pcOf := func(idx int) uint64 { return BasePC + uint64(idx)*4 }
	idx := 0
	for steps := 0; ; steps++ {
		if steps > maxSteps {
			return nil, fmt.Errorf("asm: %s exceeded %d steps (infinite loop?)", p.Name, maxSteps)
		}
		if idx < 0 || idx >= len(p.stmts) {
			break // fell off the end: implicit halt
		}
		s := &p.stmts[idx]
		if s.isHalt {
			break
		}
		if s.isBranch {
			taken := evalCond(s, st)
			in := isa.Instruction{Op: isa.OpB, PC: pcOf(idx), Taken: taken, Src1: isa.Flags}
			if s.cond == condCBZ || s.cond == condCBNZ {
				in.Src1 = s.operands[0].reg
			}
			in.Seq = len(out.Instrs)
			out.Instrs = append(out.Instrs, in)
			if taken {
				idx = s.target
			} else {
				idx++
			}
			continue
		}

		in, err := p.lower(s, st)
		if err != nil {
			return nil, err
		}
		in.PC = pcOf(idx)
		in.Seq = len(out.Instrs)
		st.Step(&in)
		out.Instrs = append(out.Instrs, in)
		idx++
	}
	if len(out.Instrs) == 0 {
		return nil, fmt.Errorf("asm: %s produced an empty trace", p.Name)
	}
	res := &TraceResult{Prog: out, Mem: st.Mem.Snapshot(), Steps: len(out.Instrs)}
	for i := range res.Regs {
		res.Regs[i] = st.Reg(isa.R(i)).Lo
	}
	for i := range res.Vecs {
		res.Vecs[i] = st.Reg(isa.V(i))
	}
	return res, nil
}

// lower converts a statement plus current register state into one trace-form
// instruction (memory addresses resolved).
func (p *Program) lower(s *stmt, st *arch.State) (isa.Instruction, error) {
	in := isa.Instruction{Op: s.op, SetFlags: s.setFlags, Lane: s.lane}
	o := s.operands
	if s.lane != isa.Lane0 {
		// SIMD shapes.
		switch s.op {
		case isa.OpVMOV:
			in.Dst = o[0].reg
			if o[1].kind == opdReg {
				in.Src2 = o[1].reg
			} else {
				in.Imm = o[1].imm
			}
		case isa.OpVSHL, isa.OpVSHR:
			in.Dst = o[0].reg
			in.Src1 = o[1].reg
			in.ShiftAmt = uint8(o[2].imm & 63)
		case isa.OpVMLA:
			in.Dst, in.Src1, in.Src2, in.Src3 = o[0].reg, o[1].reg, o[2].reg, o[3].reg
		default:
			in.Dst = o[0].reg
			in.Src1 = o[1].reg
			if o[2].kind == opdReg {
				in.Src2 = o[2].reg
			} else {
				in.Imm = o[2].imm
			}
		}
		return in, nil
	}
	switch s.op {
	case isa.OpLDR:
		in.Dst = o[0].reg
		in.Src1 = o[1].base
		in.Addr = st.Reg(o[1].base).Lo + uint64(o[1].off)
	case isa.OpSTR:
		in.Src3 = o[0].reg
		in.Src1 = o[1].base
		in.Addr = st.Reg(o[1].base).Lo + uint64(o[1].off)
	case isa.OpMOV, isa.OpMVN:
		in.Dst = o[0].reg
		if o[1].kind == opdReg {
			in.Src2 = o[1].reg
		} else {
			in.Imm = o[1].imm
		}
	case isa.OpCMP, isa.OpCMN, isa.OpTST, isa.OpTEQ:
		in.Src1 = o[0].reg
		if o[1].kind == opdReg {
			in.Src2 = o[1].reg
		} else {
			in.Imm = o[1].imm
		}
	case isa.OpRRX:
		in.Dst = o[0].reg
		in.Src1 = o[1].reg
	case isa.OpLSR, isa.OpASR, isa.OpLSL, isa.OpROR:
		in.Dst = o[0].reg
		in.Src1 = o[1].reg
		in.ShiftAmt = uint8(o[2].imm & 63)
	case isa.OpADDLSR, isa.OpSUBROR:
		in.Dst = o[0].reg
		in.Src1 = o[1].reg
		in.Src2 = o[2].reg
		in.ShiftAmt = uint8(o[3].imm & 63)
	case isa.OpMLA:
		in.Dst = o[0].reg
		in.Src1 = o[1].reg
		in.Src2 = o[2].reg
		in.Src3 = o[3].reg
	default:
		in.Dst = o[0].reg
		in.Src1 = o[1].reg
		if o[2].kind == opdReg {
			in.Src2 = o[2].reg
		} else {
			in.Imm = o[2].imm
		}
	}
	return in, nil
}

// evalCond resolves a branch direction from the current flags/registers.
func evalCond(s *stmt, st *arch.State) bool {
	f := st.Flags()
	switch s.cond {
	case condAlways:
		return true
	case condEQ:
		return f.Z
	case condNE:
		return !f.Z
	case condLT:
		return f.N != f.V
	case condGE:
		return f.N == f.V
	case condGT:
		return !f.Z && f.N == f.V
	case condLE:
		return f.Z || f.N != f.V
	case condCS:
		return f.C
	case condCC:
		return !f.C
	case condMI:
		return f.N
	case condPL:
		return !f.N
	case condCBZ:
		return st.Reg(s.operands[0].reg).Lo == 0
	case condCBNZ:
		return st.Reg(s.operands[0].reg).Lo != 0
	}
	return false
}

// MustTrace is a convenience for examples: assemble + trace, panicking on
// error.
func MustTrace(name, src string) *TraceResult {
	p, err := Assemble(name, src)
	if err != nil {
		panic(err)
	}
	tr, err := p.Trace(0)
	if err != nil {
		panic(err)
	}
	return tr
}
