package ooo

import (
	"fmt"
	"maps"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"redsoc/internal/alu"
	"redsoc/internal/arch"
	"redsoc/internal/isa"
	"redsoc/internal/trace"
	"redsoc/internal/workload"
	"redsoc/internal/workload/mibench"
	"redsoc/internal/workload/ml"
)

// canonicalOf returns p's canonical final state.
func canonicalOf(p *isa.Program) *finalState {
	return isa.Derived(p, finalKey{}, oracle)
}

// plant makes f p's canonical final state; p must not have one yet.
func plant(t *testing.T, p *isa.Program, f *finalState) {
	t.Helper()
	if isa.Derived(p, finalKey{}, func(*isa.Program) *finalState { return f }) != f {
		t.Fatal("premise: the program already has a canonical final state")
	}
}

// holdsCanonical reports whether res holds p's canonical maps.
func holdsCanonical(p *isa.Program, res *Result) bool {
	f := canonicalOf(p)
	return sameMap(res.FinalRegs, f.FinalRegs) && sameMap(res.FinalMem, f.FinalMem)
}

// TestRunsShareArchState: every run of one program — across cores, policies
// and thresholds — holds the program's single canonical FinalRegs/FinalMem.
func TestRunsShareArchState(t *testing.T) {
	bitcnt, _ := mibench.Bitcount(300, 15)
	conv, _ := ml.Conv(24, 16, 23)
	for _, p := range []*isa.Program{bitcnt, conv} {
		for _, core := range []Config{SmallConfig(), MediumConfig(), BigConfig()} {
			for pol := PolicyBaseline; pol < NumPolicies; pol++ {
				cfg := core.WithPolicy(pol)
				ths := []int{cfg.Redsoc.ThresholdTicks}
				if pol == PolicyRedsoc {
					ths = append(ths, 0, cfg.Redsoc.ThresholdTicks/2)
				}
				for _, th := range ths {
					cfg.Redsoc.ThresholdTicks = th
					res := run(t, cfg, p)
					if !holdsCanonical(p, res) {
						t.Errorf("%s on %s/%s th=%d holds its own architectural state, want the program's canonical copy",
							p.Name, cfg.Name, pol, th)
					}
				}
			}
		}
	}
}

// TestCanonicalStateDiesWithProgram: a program's canonical final state
// lasts exactly as long as the program — collected once the program is
// dropped, with no other program needed to push it out.
func TestCanonicalStateDiesWithProgram(t *testing.T) {
	collected := make(chan struct{})
	func() {
		p, _ := mibench.Bitcount(300, 15)
		run(t, SmallConfig(), p)
		f := canonicalOf(p)
		runtime.SetFinalizer(f, func(*finalState) { close(collected) })
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a dropped program's canonical final state was never collected")
}

// TestFaultedRunDoesNotPublish: a fault-injected run that is a program's
// first run leaves the canonical state the interpreter's, not its own; once
// recovered it holds the canonical maps, as a later fault-free run does.
func TestFaultedRunDoesNotPublish(t *testing.T) {
	p, _ := mibench.Bitcount(300, 15)
	cfg := SmallConfig().WithPolicy(PolicyRedsoc)
	faulted := run(t, cfg.WithFaults(0.01, 7), p)
	if faulted.FaultStats.Total() == 0 {
		t.Fatal("premise: the run must inject faults")
	}
	want, f := oracle(p), canonicalOf(p)
	if !maps.Equal(f.FinalRegs, want.FinalRegs) || !maps.Equal(f.FinalMem, want.FinalMem) || f.FinalFlags != want.FinalFlags {
		t.Fatal("after a fault-injected first run the canonical state is not the interpreter's")
	}
	if !holdsCanonical(p, faulted) {
		t.Fatal("a recovered fault-injected run must hold the canonical maps")
	}
	clean := run(t, cfg, p)
	if !holdsCanonical(p, clean) || !faulted.ArchEqual(clean) {
		t.Fatal("a fault-free run after a fault-injected one must hold the same canonical state")
	}
}

// wrongStates are the divergences planted in a program's canonical state:
// a word of the initial memory image and a register, each with its low bit
// flipped. Each returns what a run's error names as differing.
var wrongStates = []struct {
	name    string
	diverge func(st *arch.State, word uint64) (names string)
}{
	{"memory word", func(st *arch.State, word uint64) string {
		st.Mem.Write64(word, st.Mem.Read64(word)^1)
		return fmt.Sprintf("mem[%#x] = ", word)
	}},
	{"register", func(st *arch.State, _ uint64) string {
		st.Regs[isa.R(3).RenameIndex()].Lo ^= 1
		return "R3 = "
	}},
}

// plantWrong builds bitcnt and plants a canonical state that diverges from
// the interpreter's as diverge says, at the word bitcnt's first load reads.
// It returns the program, the planted state and what a run's error names.
func plantWrong(t *testing.T, diverge func(*arch.State, uint64) string) (*isa.Program, *finalState, string) {
	t.Helper()
	p, _ := mibench.Bitcount(300, 15)
	word := uint64(0)
	for i := 0; word == 0; i++ {
		if p.Instrs[i].Op == isa.OpLDR {
			word = p.Instrs[i].Addr
		}
	}
	st := arch.Run(p)
	names := diverge(st, word)
	f := finalOf(st)
	plant(t, p, f)
	return p, f, names
}

// TestWrongFinalStateIsAnError: a fault-free run that does not end in its
// program's canonical state fails, naming the program, core and policy, and
// — since every commit matches the interpreter — the first register or
// memory word that differs.
func TestWrongFinalStateIsAnError(t *testing.T) {
	for _, c := range wrongStates {
		p, _, names := plantWrong(t, c.diverge)
		cfg := MediumConfig().WithPolicy(PolicyMOS)
		_, err := Run(cfg, p)
		if err == nil {
			t.Fatalf("%s: a run that does not end in the canonical state must fail", c.name)
		}
		for _, want := range []string{"ooo: bitcnt on Medium/mos:", "no commit differs", names} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not contain %q", c.name, err, want)
			}
		}
	}
}

// TestCaptureArchComparesEveryPart plants a one-bit difference in each part of
// the state captureArch compares in place against a program's canonical
// state: an integer register, a vector register's high half, each flag, a
// memory word inside the image's span and a stored word outside it. Every
// fault-free run must fail, naming what differs. With these caught by Run
// itself, a caller need not compare a run's final state with the
// interpreter's again.
func TestCaptureArchComparesEveryPart(t *testing.T) {
	const inSpan, outSpan = 0x1040, 0x9000
	build := func() *isa.Program {
		b := workload.NewBuilder("parts")
		b.InitMem128(0x1000, 5, 7).InitMem(inSpan, 3)
		b.VecLoad(isa.V(2), isa.R(0), 0x1000).MovImm(isa.R(3), 0x55)
		b.Store(isa.R(3), isa.R(0), inSpan).Store(isa.R(3), isa.R(0), outSpan).CmpImm(isa.R(3), 0x55)
		return b.Build()
	}
	flag := func(bit uint64) func(*arch.State) {
		return func(st *arch.State) { st.Regs[flagsRenameIdx].Lo ^= bit }
	}
	word := func(a uint64) func(*arch.State) {
		return func(st *arch.State) { st.Mem.Write64(a, st.Mem.Read64(a)^1) }
	}
	for _, c := range []struct {
		part, names string
		flip        func(*arch.State)
	}{
		{"integer register", "R3 = ", func(st *arch.State) { st.Regs[isa.R(3).RenameIndex()].Lo ^= 1 }},
		{"vector register high half", "V2 = ", func(st *arch.State) { st.Regs[isa.V(2).RenameIndex()].Hi ^= 1 << 63 }},
		{"flag N", "flags = ", flag(alu.FlagN)},
		{"flag Z", "flags = ", flag(alu.FlagZ)},
		{"flag C", "flags = ", flag(alu.FlagC)},
		{"flag V", "flags = ", flag(alu.FlagV)},
		{"memory word inside the span", fmt.Sprintf("mem[%#x] = ", inSpan), word(inSpan)},
		{"memory word outside the span", fmt.Sprintf("mem[%#x] = ", outSpan), word(outSpan)},
	} {
		for _, pol := range []Policy{PolicyBaseline, PolicyRedsoc} {
			p := build()
			st := arch.Run(p)
			c.flip(st)
			plant(t, p, finalOf(st))
			_, err := Run(SmallConfig().WithPolicy(pol), p)
			if err == nil || !strings.Contains(err.Error(), c.names) {
				t.Errorf("%s, %s: Run's error is %v, want one containing %q", c.part, pol, err, c.names)
			}
		}
	}
	if _, err := Run(SmallConfig(), build()); err != nil {
		t.Fatalf("premise: the unplanted program runs clean: %v", err)
	}
}

// TestDivergentRunKeepsOwnState: a fault-injected run that does not end in
// its program's canonical state is no error; it keeps maps of its own, so
// the chaos campaign's check against a fault-free golden run (which holds
// the canonical maps) reports it, ArchOK false. A fault-injected run that
// does end in the canonical state holds the canonical maps.
func TestDivergentRunKeepsOwnState(t *testing.T) {
	p, _ := mibench.Bitcount(300, 15)
	cfg := SmallConfig().WithPolicy(PolicyRedsoc).WithFaults(0.01, 7)
	ref := run(t, cfg, p)
	if ref.FaultStats.Total() == 0 || !holdsCanonical(p, ref) {
		t.Fatal("premise: a recovered fault-injected run ends in, and holds, the canonical state")
	}
	for _, c := range wrongStates {
		p, bad, _ := plantWrong(t, c.diverge)
		res := run(t, cfg, p)
		if sameMap(res.FinalMem, bad.FinalMem) || sameMap(res.FinalRegs, bad.FinalRegs) {
			t.Fatalf("%s: a fault-injected run that diverges from the canonical state must keep its own maps", c.name)
		}
		if golden := (Result{FinalRegs: bad.FinalRegs, FinalMem: bad.FinalMem, FinalFlags: bad.FinalFlags}); res.ArchEqual(&golden) {
			t.Fatalf("%s: chaos would report the divergent run ArchOK", c.name)
		}
		if !res.ArchEqual(ref) {
			t.Fatalf("%s: the divergent run's own state is wrong", c.name)
		}
	}
}

// TestEngineFaultNamesFirstBadCommit: an engine that computes a wrong value
// — here every run of one program routes a SUB's operands swapped — fails
// Run, which re-runs the simulation in lockstep and names the first commit
// that differs: its seq, pc and op, and both values.
func TestEngineFaultNamesFirstBadCommit(t *testing.T) {
	b := workload.NewBuilder("sub")
	b.MovImm(isa.R(1), 9).MovImm(isa.R(2), 4).Op3(isa.OpADD, isa.R(5), isa.R(1), isa.R(2))
	k := b.Len()
	b.Op3(isa.OpSUB, isa.R(3), isa.R(1), isa.R(2)).Op3(isa.OpADD, isa.R(4), isa.R(3), isa.R(5)).Store(isa.R(4), isa.R(2), 0x4000)
	p := b.Build()
	roles := &trace.DecodeCached(p).Roles[k]
	roles[0], roles[1] = roles[1], roles[0]
	for _, pol := range []Policy{PolicyBaseline, PolicyLoadDelay} {
		_, err := Run(BigConfig().WithPolicy(pol), p)
		want := fmt.Sprintf("ooo: sub on Big/%s: commit differs from the architectural interpreter at seq %d pc %#x op SUB: R3 = 0xfffffffffffffffb, interpreter 0x5",
			pol, k, p.Instrs[k].PC)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one containing %q", pol, err, want)
		}
	}
}

// TestLockstepCatchesCorruptResult plants a one-bit corruption in an issued
// but uncommitted result of a run with lockstep armed. The run must stop at
// exactly that commit — every older instruction commits, the corrupted one
// does not — and Run's error names the corrupted seq and pc.
func TestLockstepCatchesCorruptResult(t *testing.T) {
	for _, pol := range []Policy{PolicyBaseline, PolicyRedsoc} {
		t.Run(pol.String(), func(t *testing.T) {
			p, _ := mibench.Bitcount(300, 15)
			k := 100
			for !p.Instrs[k].DestReg().IsInt() {
				k++
			}
			s, err := New(SmallConfig().WithPolicy(pol), p)
			if err != nil {
				t.Fatal(err)
			}
			defer s.releaseStorage()
			s.armLockstep()
			cycle := int64(0)
			for planted := false; !planted; cycle++ {
				if s.step(cycle) {
					t.Fatalf("program drained before seq %d issued", k)
				}
				for i := 0; i < s.rob.len(); i++ {
					if e := s.ent(s.rob.at(i)); e.seq == int64(k) && e.state == stIssued {
						e.result.Lo ^= 1 << 7
						planted = true
					}
				}
			}
			for ; !s.step(cycle); cycle++ {
			}
			if s.lock.bad.what == "" {
				t.Fatal("the corrupted result committed without a lockstep stop")
			}
			if s.res.Instructions != int64(k) {
				t.Fatalf("stopped after %d commits; want exactly the %d older instructions committed", s.res.Instructions, k)
			}
			want := fmt.Sprintf("seq %d pc %#x op %v: %v = ", k, p.Instrs[k].PC, p.Instrs[k].Op, p.Instrs[k].Dst)
			if err := s.lock.err(s); !strings.Contains(err.Error(), want) {
				t.Fatalf("want an error containing %q, got %q", want, err)
			}
		})
	}
}

// TestConcurrentRunsShareArchState runs one program on several goroutines
// at once, under every policy, with no canonical state built yet: every
// result holds the one the concurrent first uses built, and so does a run
// started after they all finish.
func TestConcurrentRunsShareArchState(t *testing.T) {
	p := sharedMixProg(1200)
	const workers = 8
	results := make([]*Result, workers)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := Run(MediumConfig().WithPolicy(Policy(i%int(NumPolicies))), p)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, r := range results {
		if !holdsCanonical(p, r) {
			t.Errorf("worker %d holds its own architectural state, want the program's canonical copy", i)
		}
	}
	if later := run(t, BigConfig().WithPolicy(PolicyRedsoc), p); !holdsCanonical(p, later) {
		t.Error("a run after the concurrent ones must share the canonical maps")
	}
}

// TestArchEqualOnSharedMaps: results holding the same maps are equal exactly
// when their flags are, and a copy whose map was replaced is compared in
// full.
func TestArchEqualOnSharedMaps(t *testing.T) {
	p, _ := mibench.Bitcount(300, 15)
	a := run(t, SmallConfig(), p)
	b := *a
	if !b.ArchEqual(a) {
		t.Fatal("a result must equal a copy holding its maps")
	}
	b.FinalFlags.N = !b.FinalFlags.N
	if b.ArchEqual(a) || a.ArchEqual(&b) {
		t.Fatal("results sharing maps but not flags must differ")
	}
	c := *a
	c.FinalMem = maps.Clone(a.FinalMem)
	c.FinalMem[0xdead0] = 1
	if c.ArchEqual(a) || a.ArchEqual(&c) {
		t.Fatal("a copy whose memory map was replaced must be compared in full")
	}
}
