package arch

import (
	"testing"

	"redsoc/internal/alu"
	"redsoc/internal/isa"
	"redsoc/internal/workload"
)

func TestNewStartsFromTheImage(t *testing.T) {
	b := workload.NewBuilder("image")
	b.InitMem(0x100, 7).InitMem128(0x200, 1, 2)
	b.MovImm(isa.R(1), 1)
	s := New(b.Build())
	if s.Steps != 0 || s.Reg(isa.R(1)) != (alu.Value{}) || s.Flags() != (alu.Flags{}) {
		t.Fatalf("start state not zeroed: steps %d, R1 %v, flags %+v", s.Steps, s.Reg(isa.R(1)), s.Flags())
	}
	if got := s.Mem.Read64(0x100); got != 7 {
		t.Fatalf("mem[0x100] = %d, want 7", got)
	}
	if lo, hi := s.Mem.Read128(0x200); lo != 1 || hi != 2 {
		t.Fatalf("mem[0x200] = %d:%d, want 1:2", hi, lo)
	}
}

func TestRunExecutesEveryInstruction(t *testing.T) {
	b := workload.NewBuilder("sum")
	b.MovImm(isa.R(1), 0).MovImm(isa.R(2), 3)
	for i := 0; i < 5; i++ {
		b.Op3(isa.OpADD, isa.R(1), isa.R(1), isa.R(2))
	}
	b.Store(isa.R(1), isa.R(0), 0x80)
	p := b.Build()
	s := Run(p)
	if s.Steps != int64(len(p.Instrs)) {
		t.Fatalf("executed %d of %d instructions", s.Steps, len(p.Instrs))
	}
	if got := s.Reg(isa.R(1)).Lo; got != 15 {
		t.Fatalf("R1 = %d, want 15", got)
	}
	if got := s.Mem.Read64(0x80); got != 15 {
		t.Fatalf("mem[0x80] = %d, want 15", got)
	}
}

func TestStepFlags(t *testing.T) {
	s := New(workload.NewBuilder("flags").MovImm(isa.R(1), 0).Build())
	s.Regs[isa.R(1).RenameIndex()] = alu.Scalar(^uint64(0))
	s.Regs[isa.R(2).RenameIndex()] = alu.Scalar(1)

	// A pure flag writer renames only the flags register.
	out := s.Step(&isa.Instruction{Op: isa.OpCMP, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2)})
	if !out.WritesFlags || s.Flags() != out.FlagsOut || s.Reg(isa.R(3)) != (alu.Value{}) {
		t.Fatalf("CMP: flags %+v (outcome %+v), R3 %v", s.Flags(), out.FlagsOut, s.Reg(isa.R(3)))
	}

	// ADDS writes its destination and the flags: all ones + 1 carries out.
	s.Step(&isa.Instruction{Op: isa.OpADD, Dst: isa.R(4), Src1: isa.R(1), Src2: isa.R(2), SetFlags: true})
	if got := s.Reg(isa.R(4)).Lo; got != 0 || !s.Flags().C || !s.Flags().Z {
		t.Fatalf("ADDS: R4 %d, flags %+v; want 0 with C and Z set", got, s.Flags())
	}

	// ADC consumes the carry.
	s.Step(&isa.Instruction{Op: isa.OpADC, Dst: isa.R(5), Src1: isa.R(2), Src2: isa.R(2)})
	if got := s.Reg(isa.R(5)).Lo; got != 3 {
		t.Fatalf("ADC with carry set: R5 = %d, want 3", got)
	}

	// Only carry consumers see the incoming flags: a flag-setting logic op
	// computes its C from a clear carry, as the engine's rename does.
	s.Step(&isa.Instruction{Op: isa.OpTST, Src1: isa.R(1), Src2: isa.R(2)})
	if f := s.Flags(); f.C || f.Z || f.N {
		t.Fatalf("TST 1 & ~0: flags %+v, want all clear", f)
	}
	if s.Steps != 4 {
		t.Fatalf("Steps = %d, want 4", s.Steps)
	}
}

func TestStepMemoryWidths(t *testing.T) {
	b := workload.NewBuilder("mem")
	b.InitMem128(0x40, 0x11, 0x22).InitMem(0x50, 0x33)
	s := New(b.MovImm(isa.R(0), 0).Build())

	// A vector load moves both words; a scalar load one.
	s.Step(&isa.Instruction{Op: isa.OpLDR, Dst: isa.V(1), Src1: isa.R(0), Addr: 0x40})
	if got := s.Reg(isa.V(1)); got != (alu.Value{Lo: 0x11, Hi: 0x22}) {
		t.Fatalf("vector load: V1 = %v", got)
	}
	s.Step(&isa.Instruction{Op: isa.OpLDR, Dst: isa.R(1), Src1: isa.R(0), Addr: 0x48})
	if got := s.Reg(isa.R(1)); got != alu.Scalar(0x22) {
		t.Fatalf("scalar load of the second word: R1 = %v", got)
	}
	// Unwritten memory reads as zero.
	s.Step(&isa.Instruction{Op: isa.OpLDR, Dst: isa.R(2), Src1: isa.R(0), Addr: 0x1000})
	if got := s.Reg(isa.R(2)); got != (alu.Value{}) {
		t.Fatalf("load of unwritten memory: R2 = %v", got)
	}

	// A vector store writes both words and reports its data; a scalar store
	// of a vector-wide value would be the Lo word only.
	out := s.Step(&isa.Instruction{Op: isa.OpSTR, Src1: isa.R(0), Src3: isa.V(1), Addr: 0x50})
	if out.Result != (alu.Value{Lo: 0x11, Hi: 0x22}) {
		t.Fatalf("vector store outcome %v", out.Result)
	}
	if lo, hi := s.Mem.Read128(0x50); lo != 0x11 || hi != 0x22 {
		t.Fatalf("vector store: mem[0x50] = %#x:%#x", hi, lo)
	}
	s.Regs[isa.R(3).RenameIndex()] = alu.Value{Lo: 0x44, Hi: 0x55}
	s.Step(&isa.Instruction{Op: isa.OpSTR, Src1: isa.R(0), Src3: isa.R(3), Addr: 0x40})
	if lo, hi := s.Mem.Read128(0x40); lo != 0x44 || hi != 0x22 {
		t.Fatalf("scalar store: mem[0x40] = %#x:%#x, want the Lo word only", hi, lo)
	}
	if got := s.Mem.Snapshot(); len(got) != 4 {
		t.Fatalf("memory holds %d words, want the 3 initial plus 1 stored: %v", len(got), got)
	}
}

func TestStepVectorAndMultiCycle(t *testing.T) {
	s := New(workload.NewBuilder("vec").MovImm(isa.R(0), 0).Build())
	s.Regs[isa.V(1).RenameIndex()] = alu.Value{Lo: 0x0101, Hi: 0x0202}
	s.Regs[isa.R(1).RenameIndex()] = alu.Scalar(6)
	s.Regs[isa.R(2).RenameIndex()] = alu.Scalar(7)
	s.Regs[isa.R(3).RenameIndex()] = alu.Scalar(8)

	s.Step(&isa.Instruction{Op: isa.OpVADD, Lane: isa.Lane8, Dst: isa.V(2), Src1: isa.V(1), Src2: isa.V(1)})
	if got := s.Reg(isa.V(2)); got != (alu.Value{Lo: 0x0202, Hi: 0x0404}) {
		t.Fatalf("VADD.8: V2 = %v", got)
	}
	s.Step(&isa.Instruction{Op: isa.OpMLA, Dst: isa.R(4), Src1: isa.R(1), Src2: isa.R(2), Src3: isa.R(3)})
	if got := s.Reg(isa.R(4)).Lo; got != 50 {
		t.Fatalf("MLA: R4 = %d, want 50", got)
	}
	// Branches and stores write no register.
	before := s.Regs
	s.Step(&isa.Instruction{Op: isa.OpB, Src1: isa.Flags, Taken: true})
	if s.Regs != before {
		t.Fatal("a branch wrote a register")
	}
}
