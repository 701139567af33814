// Package arch is the architectural oracle: an in-order interpreter that
// executes an isa.Program one instruction at a time over the register
// files, the NZCV flags and a mem.Memory, through the same alu.Exec the
// out-of-order engine evaluates with. Slack recycling may change when an
// operation completes, never what it commits, so every scheduler's
// committed state must equal this interpreter's. internal/difftest checks
// each run's final state against it; an audit build (-tags redsoc_audit)
// steps it beside internal/ooo's commit stage and stops at the first
// committed value that differs; internal/asm traces assembly through it.
//
// The interpreter reads the instructions themselves, not the flat
// trace.Decoded columns the engine schedules from, so a decoder bug shows
// up as a divergence too.
package arch

import (
	"redsoc/internal/alu"
	"redsoc/internal/isa"
	"redsoc/internal/mem"
)

// State is the architectural state of an in-order machine.
type State struct {
	// Regs holds every register by rename index (isa.Reg.RenameIndex): the
	// integer file, the vector file, then the flags register packed by
	// alu.Flags.Pack, as the engine's committed register file holds them.
	Regs [isa.NumRenamedRegs]alu.Value
	Mem  *mem.Memory
	// Steps counts the instructions executed.
	Steps int64
}

// New returns the state a run of prog starts in: zeroed registers and
// flags, and the program's initial memory image.
func New(prog *isa.Program) *State {
	return &State{Mem: mem.NewMemoryFrom(prog.Mem)}
}

// Run executes prog from its first instruction to its last and returns the
// final state.
func Run(prog *isa.Program) *State {
	s := New(prog)
	for i := range prog.Instrs {
		s.Step(&prog.Instrs[i])
	}
	return s
}

// Reg returns a register's value.
func (s *State) Reg(r isa.Reg) alu.Value { return s.Regs[r.RenameIndex()] }

// Flags returns the NZCV flags.
func (s *State) Flags() alu.Flags { return alu.UnpackFlags(s.Reg(isa.Flags)) }

// Step executes one instruction and returns its outcome. Result is the value
// written to the destination register or, for a store, the data written to
// memory (its Lo word only, unless the store moves a vector register);
// FlagsOut is the flags written when the instruction writes any.
//
// Only the carry-consuming opcodes (isa.Op.ReadsCarry) see the incoming
// flags, exactly as only they rename the flags register as a source.
func (s *State) Step(in *isa.Instruction) alu.Outcome {
	var ops alu.Operands
	if in.Src1 != isa.RegNone {
		ops.Src1 = s.Reg(in.Src1)
	}
	if in.Src2 != isa.RegNone {
		ops.Src2 = s.Reg(in.Src2)
	}
	if in.Src3 != isa.RegNone {
		ops.Src3 = s.Reg(in.Src3)
	}
	if in.Op.ReadsCarry() {
		ops.FlagsIn = s.Flags()
	}
	vec := in.Dst.IsVec() || in.Src3.IsVec()
	if in.Op == isa.OpLDR {
		if in.Dst.IsVec() {
			ops.MemValue.Lo, ops.MemValue.Hi = s.Mem.Read128(in.Addr)
		} else {
			ops.MemValue.Lo = s.Mem.Read64(in.Addr)
		}
	}
	out := alu.Exec(in, &ops)
	if in.Op == isa.OpSTR {
		if vec {
			s.Mem.Write128(in.Addr, out.Result.Lo, out.Result.Hi)
		} else {
			s.Mem.Write64(in.Addr, out.Result.Lo)
		}
	}
	if d := in.DestReg(); d.IsFlags() {
		s.Regs[d.RenameIndex()] = out.FlagsOut.Pack()
	} else if d.Valid() {
		s.Regs[d.RenameIndex()] = out.Result
	}
	if in.SetFlags && !in.Op.WritesFlags() {
		s.Regs[isa.Flags.RenameIndex()] = out.FlagsOut.Pack()
	}
	s.Steps++
	return out
}
