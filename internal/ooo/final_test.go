package ooo

import (
	"maps"
	"runtime"
	"sync"
	"testing"
	"time"

	"redsoc/internal/isa"
	"redsoc/internal/mem"
	"redsoc/internal/workload/mibench"
	"redsoc/internal/workload/ml"
)

// canonicalOf returns p's published canonical final state, nil if none.
func canonicalOf(p *isa.Program) *finalState {
	return isa.Derived(p, finalKey{}, newFinalSlot).p.Load()
}

// plant publishes a canonical final state holding res's maps for p, which
// must not have one yet.
func plant(t *testing.T, p *isa.Program, res *Result) {
	t.Helper()
	f := &finalState{
		FinalRegs:  res.FinalRegs,
		FinalMem:   res.FinalMem,
		FinalFlags: res.FinalFlags,
		mem:        mem.NewMemoryFrom(res.FinalMem).Freeze(),
	}
	for r, v := range res.FinalRegs { //lint:allow simdeterminism order-independent: scatter by rename index
		f.regs[r.RenameIndex()] = v
	}
	if !isa.Derived(p, finalKey{}, newFinalSlot).p.CompareAndSwap(nil, f) {
		t.Fatal("premise: the program already has a canonical final state")
	}
}

// holdsCanonical reports whether res holds p's canonical maps.
func holdsCanonical(p *isa.Program, res *Result) bool {
	f := canonicalOf(p)
	return f != nil && sameMap(res.FinalRegs, f.FinalRegs) && sameMap(res.FinalMem, f.FinalMem)
}

// TestRunsShareArchState: every run of one program — across cores, policies
// and thresholds — holds the program's single canonical FinalRegs/FinalMem.
func TestRunsShareArchState(t *testing.T) {
	bitcnt, _ := mibench.Bitcount(300, 15)
	conv, _ := ml.Conv(24, 16, 23)
	for _, p := range []*isa.Program{bitcnt, conv} {
		for _, core := range []Config{SmallConfig(), MediumConfig(), BigConfig()} {
			for pol := PolicyBaseline; pol < numPolicies; pol++ {
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
		if f == nil {
			t.Fatal("premise: a fault-free run publishes the canonical final state")
		}
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

// TestFaultedRunDoesNotPublish: only a fault-free run may publish a
// program's canonical state; a fault-injected run keeps its own maps until
// one has.
func TestFaultedRunDoesNotPublish(t *testing.T) {
	p, _ := mibench.Bitcount(300, 15)
	cfg := SmallConfig().WithPolicy(PolicyRedsoc)
	faulted := run(t, cfg.WithFaults(0.01, 7), p)
	if canonicalOf(p) != nil {
		t.Fatal("a fault-injected run published the canonical final state")
	}
	clean := run(t, cfg, p)
	if !holdsCanonical(p, clean) {
		t.Fatal("the first fault-free run must publish its state")
	}
	if sameMap(faulted.FinalMem, clean.FinalMem) {
		t.Fatal("the fault-injected run must have kept its own maps")
	}
	if !faulted.ArchEqual(clean) {
		t.Fatal("premise: recovery must leave the architectural state intact")
	}
}

// TestDivergentRunKeepsOwnState: a run whose architectural state differs
// from the program's canonical one keeps its own maps, so the
// cross-scheduler ArchEqual check still sees the divergence; an equal one
// adopts the canonical maps.
func TestDivergentRunKeepsOwnState(t *testing.T) {
	build := func() *isa.Program { p, _ := mibench.Bitcount(300, 15); return p }
	cfg := SmallConfig()
	ref := run(t, cfg, build())

	for _, c := range []struct {
		name    string
		diverge func(r *Result)
	}{
		{"memory word", func(r *Result) { r.FinalMem[0xdead0] = 1 }},
		{"register", func(r *Result) {
			v := r.FinalRegs[isa.R(3)]
			v.Lo ^= 1
			r.FinalRegs[isa.R(3)] = v
		}},
	} {
		p := build()
		bad := *ref
		bad.FinalRegs, bad.FinalMem = maps.Clone(ref.FinalRegs), maps.Clone(ref.FinalMem)
		c.diverge(&bad)
		plant(t, p, &bad)
		res := run(t, cfg, p)
		if sameMap(res.FinalMem, bad.FinalMem) || sameMap(res.FinalRegs, bad.FinalRegs) || res.ArchEqual(&bad) {
			t.Fatalf("%s: a run that diverges from the canonical state must keep its own", c.name)
		}
		if !res.ArchEqual(ref) {
			t.Fatalf("%s: the divergent run's own state is wrong", c.name)
		}
	}

	p := build()
	good := *ref
	good.FinalRegs, good.FinalMem = maps.Clone(ref.FinalRegs), maps.Clone(ref.FinalMem)
	plant(t, p, &good)
	res := run(t, cfg, p)
	if !sameMap(res.FinalRegs, good.FinalRegs) || !sameMap(res.FinalMem, good.FinalMem) {
		t.Fatal("a run equal to the canonical state must share its maps")
	}
}

// TestConcurrentRunsShareArchState runs one program on several goroutines
// at once, under every policy: every result is ArchEqual, whichever run
// published, and a run started after they all finish holds the canonical
// maps.
func TestConcurrentRunsShareArchState(t *testing.T) {
	p := sharedMixProg(1200)
	const workers = 8
	results := make([]*Result, workers)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := Run(MediumConfig().WithPolicy(Policy(i%int(numPolicies))), p)
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
	published := 0
	for i, r := range results {
		if !r.ArchEqual(results[0]) {
			t.Errorf("worker %d diverged architecturally from worker 0", i)
		}
		if holdsCanonical(p, r) {
			published++
		}
	}
	if published == 0 {
		t.Error("no concurrent run holds the canonical maps; one of them published them")
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
