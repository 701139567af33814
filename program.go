package redsoc

import (
	"sync"

	"redsoc/internal/isa"
	"redsoc/internal/workload"
)

// Program builds and holds a dynamic instruction stream. Registers are named
// by small integers: 0..31 are the 64-bit integer registers (register 0 is
// conventionally kept zero), and V0..V31 (via the Vec methods) are the
// 128-bit vector registers. Methods append instructions in program order;
// branches carry their resolved direction (the simulated front end models
// mispredict redirects against a gshare predictor).
type Program struct {
	name    string
	builder *workload.Builder
	// once guards the lazy build (built is preset for the paper's
	// benchmarks): the sweeps run one program from many campaign workers
	// at once.
	once  sync.Once
	built *isa.Program
}

// NewProgram starts an empty program.
func NewProgram(name string) *Program {
	return &Program{name: name, builder: workload.NewBuilder(name)}
}

func (p *Program) build() *isa.Program {
	p.once.Do(func() {
		if p.built == nil {
			p.built = p.builder.Build()
		}
	})
	return p.built
}

func (p *Program) b() *workload.Builder {
	if p.built != nil {
		panic("redsoc: program already run; build a new one to add instructions") //lint:allow panicpolicy audited invariant: use-after-Run misuse of the fluent builder
	}
	return p.builder
}

// Len returns the number of instructions emitted so far.
func (p *Program) Len() int {
	if p.built != nil {
		return p.built.Len()
	}
	return p.builder.Len()
}

// MovImm sets an integer register to a constant.
func (p *Program) MovImm(dst int, v uint64) *Program {
	p.b().MovImm(isa.R(dst), v)
	return p
}

// Arithmetic and logic, three-register form.

func (p *Program) Add(dst, a, b int) *Program {
	p.b().Op3(isa.OpADD, isa.R(dst), isa.R(a), isa.R(b))
	return p
}
func (p *Program) Sub(dst, a, b int) *Program {
	p.b().Op3(isa.OpSUB, isa.R(dst), isa.R(a), isa.R(b))
	return p
}
func (p *Program) And(dst, a, b int) *Program {
	p.b().Op3(isa.OpAND, isa.R(dst), isa.R(a), isa.R(b))
	return p
}
func (p *Program) Or(dst, a, b int) *Program {
	p.b().Op3(isa.OpORR, isa.R(dst), isa.R(a), isa.R(b))
	return p
}
func (p *Program) Xor(dst, a, b int) *Program {
	p.b().Op3(isa.OpEOR, isa.R(dst), isa.R(a), isa.R(b))
	return p
}
func (p *Program) Mul(dst, a, b int) *Program {
	p.b().Op3(isa.OpMUL, isa.R(dst), isa.R(a), isa.R(b))
	return p
}

// AddImm adds a constant.
func (p *Program) AddImm(dst, a int, v uint64) *Program {
	p.b().OpImm(isa.OpADD, isa.R(dst), isa.R(a), v)
	return p
}

// AndImm masks with a constant.
func (p *Program) AndImm(dst, a int, v uint64) *Program {
	p.b().OpImm(isa.OpAND, isa.R(dst), isa.R(a), v)
	return p
}

// ShiftRight and ShiftLeft shift by an immediate distance.
func (p *Program) ShiftRight(dst, a int, amt uint8) *Program {
	p.b().Shift(isa.OpLSR, isa.R(dst), isa.R(a), amt)
	return p
}

func (p *Program) ShiftLeft(dst, a int, amt uint8) *Program {
	p.b().Shift(isa.OpLSL, isa.R(dst), isa.R(a), amt)
	return p
}

// AddShifted emits the shifted-arithmetic ADD-LSR (the critical-path op).
func (p *Program) AddShifted(dst, a, b int, amt uint8) *Program {
	p.b().ShiftedArith(isa.OpADDLSR, isa.R(dst), isa.R(a), isa.R(b), amt)
	return p
}

// Cmp compares two registers into the flags; Branch consumes the flags with
// the given resolved direction.
func (p *Program) Cmp(a, b int) *Program { p.b().Cmp(isa.R(a), isa.R(b)); return p }

func (p *Program) CmpImm(a int, v uint64) *Program { p.b().CmpImm(isa.R(a), v); return p }

func (p *Program) Branch(taken bool) *Program { p.b().Branch(taken); return p }

// Load and Store move 64-bit words; addr is the effective address (trace
// form) and base names the register the access depends on.
func (p *Program) Load(dst, base int, addr uint64) *Program {
	p.b().Load(isa.R(dst), isa.R(base), addr)
	return p
}

func (p *Program) Store(src, base int, addr uint64) *Program {
	p.b().Store(isa.R(src), isa.R(base), addr)
	return p
}

// VecAdd, VecMax and VecMulAcc operate on the 128-bit vector registers with
// the given lane width (8, 16, 32 or 64 bits).
func (p *Program) VecAdd(laneBits, dst, a, b int) *Program {
	p.b().Vec3(isa.OpVADD, lane(laneBits), isa.V(dst), isa.V(a), isa.V(b))
	return p
}

func (p *Program) VecMax(laneBits, dst, a, b int) *Program {
	p.b().Vec3(isa.OpVMAX, lane(laneBits), isa.V(dst), isa.V(a), isa.V(b))
	return p
}

func (p *Program) VecMulAcc(laneBits, dst, a, b, acc int) *Program {
	p.b().VecMulAcc(lane(laneBits), isa.V(dst), isa.V(a), isa.V(b), isa.V(acc))
	return p
}

// VecLoad and VecStore move 128-bit values.
func (p *Program) VecLoad(dst, base int, addr uint64) *Program {
	p.b().VecLoad(isa.V(dst), isa.R(base), addr)
	return p
}

func (p *Program) VecStore(src, base int, addr uint64) *Program {
	p.b().VecStore(isa.V(src), isa.R(base), addr)
	return p
}

// InitMem seeds the initial memory image.
func (p *Program) InitMem(addr, value uint64) *Program {
	p.b().InitMem(addr, value)
	return p
}

// At pins the PC of subsequent instructions (instructions inside a loop
// should share PCs so the predictors see one static instruction); Auto
// resumes automatic PC advancement.
func (p *Program) At(pc uint64) *Program { p.b().At(pc); return p }
func (p *Program) Auto() *Program        { p.b().Auto(); return p }

func lane(bits int) isa.Lane {
	switch bits {
	case 8:
		return isa.Lane8
	case 16:
		return isa.Lane16
	case 32:
		return isa.Lane32
	case 64:
		return isa.Lane64
	}
	panic("redsoc: lane width must be 8, 16, 32 or 64") //lint:allow panicpolicy audited invariant: lane widths are compile-time constants
}
