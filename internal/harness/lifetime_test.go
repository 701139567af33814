package harness

import (
	"runtime"
	"slices"
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

// TestArchStateDiesWithProgram: a program's decoded architectural-state
// sections are shared while the program is held, keep a copy of the bytes
// they were decoded from rather than the payload those were sliced from,
// and are collected once the program is dropped.
func TestArchStateDiesWithProgram(t *testing.T) {
	gone := make(chan struct{})
	func() {
		p := &isa.Program{Name: "dropped"}
		payload := append([]byte("results section"), appendArch(nil, archState{Mem: map[uint64]uint64{0x40: 1, 0x48: 2}})...)
		section := payload[len("results section"):]
		a, err := archCache{}.decode(p, section)
		if err != nil {
			t.Fatal(err)
		}
		b, err := archCache{}.decode(p, slices.Clone(section))
		if err != nil {
			t.Fatal(err)
		}
		if mapID(a.Mem) != mapID(b.Mem) {
			t.Fatal("a held program's section was decoded twice")
		}
		s := isa.Derived(p, archKey{}, func(*isa.Program) *archSections { return new(archSections) })
		if len(s.decoded) != 1 {
			t.Fatalf("the program holds %d decoded sections, want 1", len(s.decoded))
		}
		if &s.decoded[0].section[0] == &section[0] {
			t.Fatal("a decoded section keeps its payload alive")
		}
		runtime.SetFinalizer(s, func(*archSections) { close(gone) })
	}()
	awaitCollection(t, "a dropped program's decoded sections", gone)
}

// TestSuitesKeepTheirCanonicalState: with the quick and the full suite both
// live — 30 programs, as in a server that has built both scales — a warm
// pass over either suite, run after a pass over the other, adopts every
// program's canonical final state: each result holds the FinalMem map its
// program's first run published, so no run builds its own.
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
