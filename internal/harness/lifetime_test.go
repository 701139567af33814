package harness

import (
	"runtime"
	"testing"
	"time"

	"redsoc/internal/isa"
	"redsoc/internal/ooo"
)

// awaitCollection runs collections until collected closes, and fails the
// test if it never does.
func awaitCollection(t *testing.T, what string, collected <-chan struct{}) {
	t.Helper()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("%s was never collected", what)
}

// TestDigestsDieWithProgram: a program's digest and a benchmark's digest
// are shared while the program is held and collected once it is dropped.
func TestDigestsDieWithProgram(t *testing.T) {
	progGone, benchGone := make(chan struct{}), make(chan struct{})
	func() {
		p := &isa.Program{Name: "dropped", Instrs: []isa.Instruction{{Op: isa.OpMOV, Dst: isa.R(1)}}}
		b := Benchmark{Class: ClassMiB, Name: "dropped", Prog: p, WantMem: map[uint64]uint64{0x40: 1}}
		pd, bd := programDigest(p), benchmarkDigest(b)
		if &programDigest(p)[0] != &pd[0] || &benchmarkDigest(b)[0] != &bd[0] {
			t.Fatal("a held program's digests were rebuilt")
		}
		runtime.SetFinalizer(&pd[0], func(*byte) { close(progGone) })
		runtime.SetFinalizer(&bd[0], func(*byte) { close(benchGone) })
	}()
	awaitCollection(t, "a dropped program's digest", progGone)
	awaitCollection(t, "a dropped program's benchmark digest", benchGone)
}

// TestArchStateDiesWithProgram: the architectural state decoded cells point
// at is their program's final state, held on the program, so nothing keeps
// a program alive once its cells and the program are dropped.
func TestArchStateDiesWithProgram(t *testing.T) {
	cfg := ooo.SmallConfig()
	c := quickCell(t, "crc")
	data, err := encodeCell(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gone := make(chan struct{})
	func() {
		p := &isa.Program{Name: "dropped", Instrs: []isa.Instruction{{Op: isa.OpMOV, Dst: isa.R(1), Imm: 7}}}
		task := taskOf(c, cfg)
		task.b.Prog = p
		got, err := decodeCell(data, task)
		if err != nil {
			t.Fatal(err)
		}
		regs, mem, _ := ooo.FinalState(p)
		for _, r := range got.Cmp.Runs {
			if mapID(r.FinalRegs) != mapID(regs) || mapID(r.FinalMem) != mapID(mem) || r.FinalRegs[isa.R(1)].Lo != 7 {
				t.Fatalf("%s: a decoded result does not hold its program's final state", r.Config.Policy)
			}
		}
		runtime.SetFinalizer(p, func(*isa.Program) { close(gone) })
	}()
	awaitCollection(t, "a program its decoded cells were dropped with", gone)
}

// TestSuitesKeepTheirCanonicalState: with the quick and the full suite both
// live — 30 programs, as in a server that has built both scales — a warm
// pass over either suite, run after a pass over the other, adopts every
// program's canonical final state: each result holds the FinalMem map its
// program's first run held, so no run builds its own.
func TestSuitesKeepTheirCanonicalState(t *testing.T) {
	quick, full := Benchmarks(Quick), Benchmarks(Full)
	first := map[*isa.Program]uintptr{}
	pass := func(suite []Benchmark, warm bool) {
		for _, b := range suite {
			res, err := ooo.Run(ooo.SmallConfig(), b.Prog)
			if err != nil {
				t.Fatal(err)
			}
			id := mapID(res.FinalMem)
			if !warm {
				first[b.Prog] = id
			} else if id != first[b.Prog] {
				t.Errorf("%s: a warm run built its own FinalMem instead of adopting the canonical one", b.Prog.Name)
			}
		}
	}
	pass(quick, false)
	pass(full, false)
	if len(first) != len(quick)+len(full) {
		t.Fatalf("premise: the two suites share programs (%d distinct of %d)", len(first), len(quick)+len(full))
	}
	pass(quick, true)
	pass(full, true)
}
