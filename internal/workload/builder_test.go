package workload

import (
	"testing"

	"redsoc/internal/isa"
)

func TestBuilderSequencesAndPCs(t *testing.T) {
	b := NewBuilder("t")
	b.MovImm(isa.R(1), 5)
	b.At(0x42).Op3(isa.OpADD, isa.R(2), isa.R(1), isa.R(1))
	b.Op3(isa.OpADD, isa.R(3), isa.R(2), isa.R(1)) // pinned PC persists
	b.Auto()
	b.MovImm(isa.R(4), 1)
	p := b.Build()
	// An instruction's sequence number is its index: one per emit, in order.
	if len(p.Instrs) != 4 || p.Instrs[0].Op != isa.OpMOV || p.Instrs[3].Op != isa.OpMOV || p.Instrs[1].Op != isa.OpADD {
		t.Fatalf("trace = %+v, want MOV, ADD, ADD, MOV in emit order", p.Instrs)
	}
	if p.Instrs[1].PC != 0x42 || p.Instrs[2].PC != 0x42 {
		t.Fatalf("pinned PCs = %#x/%#x", p.Instrs[1].PC, p.Instrs[2].PC)
	}
	if p.Instrs[3].PC == 0x42 {
		t.Fatal("Auto must resume advancing PCs")
	}
	if p.Instrs[0].PC == p.Instrs[3].PC {
		t.Fatal("auto PCs must advance")
	}
}

func TestBuilderMemImage(t *testing.T) {
	b := NewBuilder("m")
	b.InitMem(0x103, 7) // aligned down to 0x100
	b.InitMem128(0x200, 1, 2)
	b.MovImm(isa.R(1), 0)
	p := b.Build()
	if p.Mem[0x100] != 7 || p.Mem[0x200] != 1 || p.Mem[0x208] != 2 {
		t.Fatalf("mem image = %v", p.Mem)
	}
}

func TestBuilderEmitters(t *testing.T) {
	b := NewBuilder("e")
	b.Shift(isa.OpLSR, isa.R(1), isa.R(2), 3)
	b.ShiftedArith(isa.OpADDLSR, isa.R(1), isa.R(2), isa.R(3), 4)
	b.Cmp(isa.R(1), isa.R(2))
	b.Branch(true)
	b.Load(isa.R(1), isa.R(0), 0x10)
	b.Store(isa.R(1), isa.R(0), 0x18)
	b.MulAcc(isa.R(1), isa.R(2), isa.R(3), isa.R(4))
	b.Vec3(isa.OpVADD, isa.Lane8, isa.V(1), isa.V(2), isa.V(3))
	b.VecMulAcc(isa.Lane16, isa.V(1), isa.V(2), isa.V(3), isa.V(1))
	p := b.Build()
	if p.Instrs[0].ShiftAmt != 3 || p.Instrs[1].ShiftAmt != 4 {
		t.Fatal("shift amounts lost")
	}
	if p.Instrs[3].Op != isa.OpB || p.Instrs[3].Src1 != isa.Flags {
		t.Fatal("Branch must consume flags")
	}
	if p.Instrs[5].Src3 != isa.R(1) {
		t.Fatal("Store data must ride Src3")
	}
	if p.Instrs[8].Lane != isa.Lane16 || p.Instrs[8].Src3 != isa.V(1) {
		t.Fatal("VMLA fields wrong")
	}
}

func TestBuildEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty program must panic")
		}
	}()
	NewBuilder("empty").Build()
}
