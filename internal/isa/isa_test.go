package isa

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestALUOpsCoverFig1(t *testing.T) {
	ops := ALUOps()
	if len(ops) != 23 {
		t.Fatalf("Fig. 1 characterizes 23 ALU operations, got %d", len(ops))
	}
	seen := map[Op]bool{}
	for _, op := range ops {
		if seen[op] {
			t.Errorf("duplicate op %v in ALUOps", op)
		}
		seen[op] = true
		if !op.IsALU() {
			t.Errorf("%v listed in ALUOps but IsALU() is false", op)
		}
		if !op.SingleCycle() {
			t.Errorf("%v is an ALU op but not single cycle", op)
		}
	}
}

func TestOpClassPartitions(t *testing.T) {
	cases := []struct {
		op Op
		c  Class
	}{
		{OpAND, ClassLogic}, {OpMOV, ClassLogic}, {OpTST, ClassLogic},
		{OpLSR, ClassShift}, {OpRRX, ClassShift},
		{OpADD, ClassArith}, {OpSBC, ClassArith}, {OpCMP, ClassArith},
		{OpADDLSR, ClassShiftArith}, {OpSUBROR, ClassShiftArith},
		{OpMUL, ClassMul}, {OpDIV, ClassDiv}, {OpFADD, ClassFP},
		{OpLDR, ClassLoad}, {OpSTR, ClassStore}, {OpB, ClassBranch},
		{OpVADD, ClassSIMD}, {OpVMUL, ClassSIMDMul}, {OpVMLA, ClassSIMD},
		{OpNOP, ClassNop},
	}
	for _, c := range cases {
		if got := c.op.Class(); got != c.c {
			t.Errorf("%v.Class() = %v, want %v", c.op, got, c.c)
		}
	}
}

func TestSingleCycleAndMultiCycleDisjoint(t *testing.T) {
	for op := Op(0); op < Op(NumOps); op++ {
		switch op.Class() {
		case ClassMul, ClassDiv, ClassFP, ClassSIMDMul, ClassLoad, ClassStore:
			if op.SingleCycle() {
				t.Errorf("%v (class %v) must not be single cycle", op, op.Class())
			}
		}
	}
}

func TestFlagSemantics(t *testing.T) {
	for _, op := range []Op{OpTST, OpTEQ, OpCMP, OpCMN} {
		if !op.WritesFlags() {
			t.Errorf("%v must write flags", op)
		}
	}
	for _, op := range []Op{OpADC, OpSBC, OpRSC, OpRRX} {
		if !op.ReadsCarry() {
			t.Errorf("%v must read carry", op)
		}
	}
	if OpADD.WritesFlags() || OpADD.ReadsCarry() {
		t.Error("plain ADD neither writes flags implicitly nor reads carry")
	}
}

func TestRegisterNaming(t *testing.T) {
	if got := R(5).String(); got != "R5" {
		t.Errorf("R(5) = %q", got)
	}
	if got := V(7).String(); got != "V7" {
		t.Errorf("V(7) = %q", got)
	}
	if !R(0).IsInt() || R(0).IsVec() {
		t.Error("R0 must be an integer register")
	}
	if !V(0).IsVec() || V(0).IsInt() {
		t.Error("V0 must be a vector register")
	}
	if !Flags.IsFlags() {
		t.Error("Flags must report IsFlags")
	}
	if RegNone.Valid() {
		t.Error("RegNone must be invalid")
	}
}

func TestRenameIndexBijective(t *testing.T) {
	seen := make(map[int]Reg)
	regs := []Reg{Flags}
	for i := 0; i < NumIntRegs; i++ {
		regs = append(regs, R(i))
	}
	for i := 0; i < NumVecRegs; i++ {
		regs = append(regs, V(i))
	}
	for _, r := range regs {
		idx := r.RenameIndex()
		if idx < 0 || idx >= NumRenamedRegs {
			t.Fatalf("%v.RenameIndex() = %d out of range", r, idx)
		}
		if prev, dup := seen[idx]; dup {
			t.Fatalf("rename index %d shared by %v and %v", idx, prev, r)
		}
		seen[idx] = r
	}
	if len(seen) != NumRenamedRegs {
		t.Fatalf("covered %d rename indices, want %d", len(seen), NumRenamedRegs)
	}
}

func TestRegisterRangePanics(t *testing.T) {
	for _, fn := range []func(){func() { R(32) }, func() { R(-1) }, func() { V(32) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range register constructor must panic")
				}
			}()
			fn()
		}()
	}
}

func TestEffectiveWidth(t *testing.T) {
	cases := []struct {
		v uint64
		w int
	}{
		{0, 1}, {1, 1}, {0xFF, 8}, {0x100, 9}, {0xFFFF, 16},
		{1 << 31, 32}, {1 << 32, 33}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := EffectiveWidth(c.v); got != c.w {
			t.Errorf("EffectiveWidth(%#x) = %d, want %d", c.v, got, c.w)
		}
	}
}

func TestClassifyWidthBoundaries(t *testing.T) {
	cases := []struct {
		bits int
		w    WidthClass
	}{
		{1, Width8}, {8, Width8}, {9, Width16}, {16, Width16},
		{17, Width32}, {32, Width32}, {33, Width64}, {64, Width64},
	}
	for _, c := range cases {
		if got := ClassifyWidth(c.bits); got != c.w {
			t.Errorf("ClassifyWidth(%d) = %v, want %v", c.bits, got, c.w)
		}
	}
}

func TestOperandWidthClassTakesWider(t *testing.T) {
	if got := OperandWidthClass(3, 0x1_0000); got != Width32 {
		t.Errorf("OperandWidthClass(3, 0x10000) = %v, want w32", got)
	}
	if got := OperandWidthClass(0x1_0000, 3); got != Width32 {
		t.Errorf("OperandWidthClass must be symmetric, got %v", got)
	}
}

// Property: width classification is monotone in the value and never
// understates the bits needed to represent it.
func TestWidthClassProperty(t *testing.T) {
	f := func(v uint64) bool {
		w := ClassifyWidth(EffectiveWidth(v))
		if w.Bits() < 64 && v >= 1<<uint(w.Bits()) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLaneElems(t *testing.T) {
	cases := []struct {
		l Lane
		n int
	}{{Lane0, 0}, {Lane8, 16}, {Lane16, 8}, {Lane32, 4}, {Lane64, 2}}
	for _, c := range cases {
		if got := c.l.Elems(); got != c.n {
			t.Errorf("Lane%d.Elems() = %d, want %d", c.l, got, c.n)
		}
	}
}

func TestInstructionSourcesAndDest(t *testing.T) {
	in := Instruction{Op: OpADC, Dst: R(1), Src1: R(2), Src2: R(3)}
	srcs := in.Sources(nil)
	want := []Reg{R(2), R(3), Flags}
	if len(srcs) != len(want) {
		t.Fatalf("Sources = %v, want %v", srcs, want)
	}
	for i := range want {
		if srcs[i] != want[i] {
			t.Fatalf("Sources = %v, want %v", srcs, want)
		}
	}
	if in.DestReg() != R(1) {
		t.Errorf("ADC dest = %v, want R1", in.DestReg())
	}
	cmp := Instruction{Op: OpCMP, Dst: RegNone, Src1: R(2), Src2: R(3)}
	if cmp.DestReg() != Flags {
		t.Errorf("CMP must rename the flags register, got %v", cmp.DestReg())
	}
}

func TestInstructionString(t *testing.T) {
	in := Instruction{Op: OpADD, Dst: R(1), Src1: R(2), Src2: RegNone, Imm: 4}
	if got := in.String(); got != "ADD R1, R2, #4" {
		t.Errorf("String() = %q", got)
	}
	v := Instruction{Op: OpVADD, Lane: Lane8, Dst: V(1), Src1: V(2), Src2: V(3)}
	if got := v.String(); got != "VADD.8 V1, V2, V3" {
		t.Errorf("String() = %q", got)
	}
}

// TestInstructionSize pins the packed layout: three 8-byte words, then nine
// single-byte fields, with no sequence-number field. Every simulated
// program holds one Instruction per dynamic instruction, so a field added
// or reordered into padding grows every trace.
func TestInstructionSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned on 64-bit targets")
	}
	if got := unsafe.Sizeof(Instruction{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(Instruction{}) = %d, want 40", got)
	}
}
