package ooo

import (
	"context"
	"fmt"
	"reflect"

	"redsoc/internal/alu"
	"redsoc/internal/arch"
	"redsoc/internal/isa"
	"redsoc/internal/mem"
	"redsoc/internal/trace"
)

// Slack recycling changes when an operation completes, never what it
// commits, so every run of a program — under any policy, on any core, at any
// threshold — must end in the state the in-order architectural interpreter
// (internal/arch) ends in. That state is the program's canonical final
// state: arch.Run's registers, flags and memory, built once per program and
// held on it. A run that ends in it (compared in place, without building
// anything) points its Result at the canonical FinalRegs and FinalMem maps.
// A fault-free run that does not is an engine fault: Run re-runs it with
// the interpreter stepping beside commit (lockstep) and returns an error
// naming the first commit that differs. A fault-injected run that does not
// keeps maps of its own, so the chaos campaign's ArchEqual check against a
// fault-free golden run sees the divergence. The shared maps are read-only:
// nothing may write a Result's FinalRegs or FinalMem (an audit build checks
// this at every adoption).

// finalState is one program's canonical final architectural state: the
// shared maps and the copies they are compared against.
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

// finalKey names a program's canonical final state among the values derived
// from it. The state lives on the program (isa.Derived), like its shared
// decode, so it lasts exactly as long as its program.
type finalKey struct{}

// oracle runs prog on the architectural interpreter and returns its final
// state.
func oracle(prog *isa.Program) *finalState { return finalOf(arch.Run(prog)) }

// finalOf returns the interpreter state st as a final state.
func finalOf(st *arch.State) *finalState {
	f := &finalState{
		FinalMem:   st.Mem.Snapshot(),
		FinalFlags: st.Flags(),
		regs:       [archFileRegs]alu.Value(st.Regs[:archFileRegs]),
		mem:        st.Mem.Freeze(),
	}
	f.FinalRegs = regMap(&f.regs)
	return f
}

// regMap returns the register files regs holds, keyed by register.
func regMap(regs *[archFileRegs]alu.Value) map[isa.Reg]alu.Value {
	m := make(map[isa.Reg]alu.Value, archFileRegs)
	for i := 0; i < isa.NumIntRegs; i++ {
		m[isa.R(i)] = regs[isa.R(i).RenameIndex()]
	}
	for i := 0; i < isa.NumVecRegs; i++ {
		m[isa.V(i)] = regs[isa.V(i).RenameIndex()]
	}
	return m
}

// FinalState returns prog's canonical final architectural state — the
// interpreter's, which every successful fault-free run ends in — as the
// read-only maps and flags such a run's Result holds.
func FinalState(prog *isa.Program) (regs map[isa.Reg]alu.Value, mem map[uint64]uint64, flags alu.Flags) {
	f := isa.Derived(prog, finalKey{}, oracle)
	return f.FinalRegs, f.FinalMem, f.FinalFlags
}

// captureArch sets the Result's architectural state: the program's
// canonical maps when the run ended in that state, otherwise — for a
// fault-injected run — maps of its own. A fault-free run that ended
// elsewhere is an error naming where it went wrong.
func (s *Simulator) captureArch(ctx context.Context) error {
	f := isa.Derived(s.prog, finalKey{}, oracle)
	if s.endsIn(f) {
		s.audit.onAdoptFinal(s, f)
		s.res.FinalRegs, s.res.FinalMem, s.res.FinalFlags = f.FinalRegs, f.FinalMem, f.FinalFlags
		return nil
	}
	if s.inject == nil {
		return s.divergence(ctx, f)
	}
	s.res.FinalRegs = regMap((*[archFileRegs]alu.Value)(s.archRegs[:archFileRegs]))
	s.res.FinalMem = s.memory.Snapshot()
	s.res.FinalFlags = alu.UnpackFlags(s.archRegs[flagsRenameIdx])
	return nil
}

// endsIn reports whether the simulator's committed state is f's, exactly as
// capture would report it: the same register values, flags and memory
// snapshot.
func (s *Simulator) endsIn(f *finalState) bool {
	return [archFileRegs]alu.Value(s.archRegs[:archFileRegs]) == f.regs &&
		alu.UnpackFlags(s.archRegs[flagsRenameIdx]) == f.FinalFlags &&
		s.memory.Matches(f.mem)
}

// divergence explains a fault-free run that did not end in its program's
// canonical state f. Unless the run already stepped the interpreter in
// lockstep, it re-runs the simulation once under ctx with lockstep armed,
// whose error names the first commit that differs; a lockstep run that gets
// here committed nothing that differs, and the error names the first
// register, flag or memory word its final state holds otherwise.
func (s *Simulator) divergence(ctx context.Context, f *finalState) error {
	if s.lock == nil {
		r, err := New(s.cfg, s.prog)
		if err != nil {
			return err
		}
		r.armLockstep()
		if _, err := r.RunContext(ctx); err != nil {
			return err
		}
		return fmt.Errorf("%s: ends in another state than the architectural interpreter, but not when re-run in lockstep", s.name())
	}
	const clean = "no commit differs from the architectural interpreter, but the final state does"
	for i, v := range s.archRegs[:archFileRegs] {
		if v == f.regs[i] {
			continue
		}
		if i < isa.NumIntRegs {
			return s.differs(clean, isa.R(i).String(), v, f.regs[i])
		}
		return s.differs(clean, isa.V(i-isa.NumIntRegs).String(), v, f.regs[i])
	}
	if flags := alu.UnpackFlags(s.archRegs[flagsRenameIdx]); flags != f.FinalFlags {
		return s.differs(clean, "flags", flags, f.FinalFlags)
	}
	if a, ok := s.memory.FirstDiff(f.mem); ok {
		return s.differs(clean, fmt.Sprintf("mem[%#x]", a), alu.Scalar(s.memory.Read64(a)), alu.Scalar(f.FinalMem[a]))
	}
	return fmt.Errorf("%s: %s", s.name(), clean)
}

// differs returns an error naming the run, where it differs from the
// interpreter, and what differs: the engine's value against the
// interpreter's.
func (s *Simulator) differs(where, what string, got, want any) error {
	return fmt.Errorf("%s: %s: %s = %+v, interpreter %+v", s.name(), where, what, got, want)
}

// name identifies the run in an error: program, core and policy.
func (s *Simulator) name() string {
	return fmt.Sprintf("ooo: %s on %s/%s", s.prog.Name, s.cfg.Name, s.cfg.Policy)
}

// lockstep steps the architectural interpreter once per committed
// instruction and records the first commit whose destination value, store
// data or flags differ from the interpreter's step. Run stops there, so a
// divergence is reported at the instruction that committed it. A default
// build arms it only to re-run a run that ended in the wrong state; an
// audit build (-tags redsoc_audit) arms it on every run.
type lockstep struct {
	arch arch.State
	bad  badCommit
}

// badCommit describes the first commit that differs from the interpreter:
// its entry, what differs ("" while nothing does) and both values.
type badCommit struct {
	seq, ti   int64
	what      string // "trace index", "store data", "dest" or "flags"
	got, want alu.Value
}

// armLockstep arms the lockstep check for this run, with an interpreter in
// the program's start state kept in the run's borrowed storage.
func (s *Simulator) armLockstep() {
	l := &s.store.lock
	if l.arch.Mem == nil {
		l.arch.Mem = mem.NewMemory()
	}
	*l = lockstep{arch: arch.State{Mem: l.arch.Mem}}
	l.arch.Mem.Reset(s.dec.Image)
	s.lock = l
}

// commits steps the interpreter for the entry retiring from the ROB head,
// before it writes architectural state, and reports whether the entry
// commits what the interpreter executes; the first that does not is
// recorded.
func (l *lockstep) commits(s *Simulator, e *entry) bool {
	b := badCommit{seq: e.seq, ti: int64(e.ti)}
	if b.ti != l.arch.Steps {
		b.what, b.got, b.want = "trace index", alu.Scalar(uint64(b.ti)), alu.Scalar(uint64(l.arch.Steps))
	} else {
		want := l.arch.Step(s.in(e))
		vec := e.bits&trace.BitVecAccess != 0
		switch {
		case e.isStore && (e.result.Lo != want.Result.Lo || vec && e.result.Hi != want.Result.Hi):
			b.what, b.got, b.want = "store data", e.result, want.Result
		case e.bits&trace.BitHasDest != 0 && e.dest != flagsRenameIdx && e.result != want.Result:
			b.what, b.got, b.want = "dest", e.result, want.Result
		case (e.bits&trace.BitSetFlagsExtra != 0 || e.bits&trace.BitHasDest != 0 && e.dest == flagsRenameIdx) &&
			e.flagsOut != want.FlagsOut:
			b.what, b.got, b.want = "flags", e.flagsOut.Pack(), want.FlagsOut.Pack()
		}
	}
	if b.what == "" {
		return true
	}
	l.bad = b
	return false
}

// err returns the recorded bad commit as an error naming the run and the
// commit: seq, pc, op and the engine's value against the interpreter's.
func (l *lockstep) err(s *Simulator) error {
	b := l.bad
	in := &s.prog.Instrs[b.ti]
	what, got, want := b.what, any(b.got), any(b.want)
	switch what {
	case "trace index":
		got, want = b.got.Lo, b.want.Lo
	case "dest":
		what = in.DestReg().String()
	case "flags":
		got, want = alu.UnpackFlags(b.got), alu.UnpackFlags(b.want)
	}
	return s.differs(fmt.Sprintf("commit differs from the architectural interpreter at seq %d pc %#x op %v", b.seq, in.PC, in.Op), what, got, want)
}

// sameMap reports whether a and b are one map.
func sameMap[M ~map[K]V, K comparable, V any](a, b M) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}
