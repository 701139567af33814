package ooo

// White-box tests pinning the rules that keep the tag-indexed scheduler from
// examining entries that cannot issue: grandparent registration only for
// EGPW candidates, dispatch-time seeding only for possibly schedulable
// entries, and MOS fusion candidates drawn from the producer's own waiters.

import (
	"testing"

	"redsoc/internal/alu"
	"redsoc/internal/core"
	"redsoc/internal/isa"
	"redsoc/internal/obs"
	"redsoc/internal/workload"
)

// gpChain is a three-op dependent chain of single-cycle ops: gp has no
// in-flight producer, parent depends on gp, child depends on parent (so its
// grandparent tag is gp).
func gpChain(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	b := workload.NewBuilder("gpchain")
	b.Op3(isa.OpEOR, isa.R(1), isa.R(9), isa.R(9)) // gp
	b.Op3(isa.OpEOR, isa.R(2), isa.R(1), isa.R(1)) // parent
	b.Op3(isa.OpEOR, isa.R(3), isa.R(2), isa.R(2)) // child
	s, err := New(cfg, b.Build())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func hasIdx(list []int32, i int32) bool {
	for _, x := range list {
		if x == i {
			return true
		}
	}
	return false
}

func TestGrandparentRegistrationOnlyForEGPW(t *testing.T) {
	for _, tc := range []struct {
		pol  Policy
		want bool
	}{
		{PolicyBaseline, false},
		{PolicyMOS, false},
		{PolicyRedsoc, true},
	} {
		s := gpChain(t, BigConfig().WithPolicy(tc.pol))
		s.dispatch(0)
		if s.rob.len() != 3 {
			t.Fatalf("%v: dispatched %d ops, want 3", tc.pol, s.rob.len())
		}
		gpi, pi, ci := s.rob.at(0), s.rob.at(1), s.rob.at(2)
		if got := s.ent(ci).gp; got != gpi {
			t.Fatalf("%v: child's grandparent tag is %d, want %d", tc.pol, got, gpi)
		}
		gp := s.ent(gpi)
		if !hasIdx(gp.waiters, pi) {
			t.Fatalf("%v: the parent must register on its producer's tag", tc.pol)
		}
		if got := hasIdx(gp.waiters, ci); got != tc.want {
			t.Fatalf("%v: child registered on its grandparent = %v, want %v", tc.pol, got, tc.want)
		}
	}

	// ReDSOC with EGPW off has no use for the grandparent's broadcast either.
	cfg := BigConfig().WithPolicy(PolicyRedsoc)
	cfg.Redsoc.EGPW = false
	s := gpChain(t, cfg)
	s.dispatch(0)
	if hasIdx(s.ent(s.rob.at(0)).waiters, s.rob.at(2)) {
		t.Fatal("ReDSOC without EGPW must not register on the grandparent")
	}
}

func TestDispatchSeedsOnlyPossiblySchedulable(t *testing.T) {
	// Everything dispatches in one cycle: only gp, with no in-flight
	// producer, may be schedulable; parent and child wait on producers that
	// have not broadcast and are registered on them.
	for _, pol := range []Policy{PolicyBaseline, PolicyMOS, PolicyRedsoc} {
		s := gpChain(t, BigConfig().WithPolicy(pol))
		s.dispatch(0)
		gpi, pi, ci := s.rob.at(0), s.rob.at(1), s.rob.at(2)
		if !hasIdx(s.wakeBuf, gpi) {
			t.Fatalf("%v: an entry with no in-flight producer must be seeded", pol)
		}
		if hasIdx(s.wakeBuf, pi) || hasIdx(s.wakeBuf, ci) {
			t.Fatalf("%v: entries whose last producer has not broadcast must not be seeded: %v", pol, s.wakeBuf)
		}
		if s.ent(pi).inReady || s.ent(ci).inReady {
			t.Fatalf("%v: unseeded entries must not be marked inReady", pol)
		}
	}

	// Two-wide front end: gp and parent dispatch in cycle 0 and gp issues;
	// the child dispatches in cycle 1 with its parent still waiting but its
	// grandparent awake. Only an EGPW candidate may request on that alone.
	for _, tc := range []struct {
		pol  Policy
		want bool
	}{
		{PolicyBaseline, false},
		{PolicyRedsoc, true},
	} {
		cfg := BigConfig().WithPolicy(tc.pol)
		cfg.FrontEndWidth = 2
		s := gpChain(t, cfg)
		s.dispatch(0)
		s.issue(0)
		if gp := s.ent(s.rob.at(0)); gp.broadcastCycle != 0 {
			t.Fatalf("%v: grandparent did not issue in cycle 0", tc.pol)
		}
		if p := s.ent(s.rob.at(1)); p.state != stWaiting {
			t.Fatalf("%v: parent issued in cycle 0 without an awake producer", tc.pol)
		}
		s.dispatch(1)
		ci := s.rob.at(2)
		if got := hasIdx(s.wakeBuf, ci); got != tc.want {
			t.Fatalf("%v: child with awake grandparent seeded = %v, want %v", tc.pol, got, tc.want)
		}
		if tc.want && !s.specEligible(s.ent(ci), 1) {
			t.Fatal("the seeded EGPW child must be specEligible in its dispatch cycle")
		}
	}
}

func TestTryFuseProbesDoubleOperandConsumerOnce(t *testing.T) {
	wb := workload.NewBuilder("fusedouble")
	wb.Op3(isa.OpEOR, isa.R(1), isa.R(9), isa.R(9)) // producer
	wb.Op3(isa.OpADD, isa.R(3), isa.R(1), isa.R(1)) // consumer naming it twice
	s, err := New(SmallConfig().WithPolicy(PolicyMOS), wb.Build())
	if err != nil {
		t.Fatal(err)
	}
	var events obs.Buffer
	s.SetObserver(&events)
	s.dispatch(0)
	ei, bi := s.rob.at(0), s.rob.at(1)
	e, b := s.ent(ei), s.ent(bi)
	if len(e.waiters) != 2 || e.waiters[0] != bi || e.waiters[1] != bi {
		t.Fatalf("a consumer naming its producer twice registers twice, back to back: waiters %v", e.waiters)
	}

	// Issue the producer by hand with a wide result and a short EX-TIME, so
	// the pair fits one cycle and the consumer's safe width prediction lands.
	e.state = stIssued
	e.broadcastCycle = 0
	e.exTicks = 1
	e.result = alu.Value{Lo: 1 << 40}
	b.exTicks = 1
	b.est = core.Estimate{Predicted: true, Width: isa.Width64, ExTicks: 1}
	rs := len(s.rs)

	s.tryFuse(e, 0)

	if !b.fused || b.state != stIssued {
		t.Fatal("the double-operand consumer must fuse")
	}
	if s.res.FusedOps != 1 {
		t.Fatalf("FusedOps = %d, want 1", s.res.FusedOps)
	}
	if len(s.rs) != rs-1 {
		t.Fatalf("RS shrank by %d, want 1", rs-len(s.rs))
	}
	if b.result.Lo != 2<<40 {
		t.Fatalf("fused result %#x, want %#x", b.result.Lo, uint64(2<<40))
	}
	if st := s.widthPred.Stats(); st.Aggressive+st.Exact+st.Conservative != 1 {
		t.Fatalf("the fusion must train the width predictor exactly once: %+v", st)
	}
	fused := 0
	for _, ev := range events.Events() {
		if ev.Kind == obs.KindIssue && ev.Flags&obs.FlagFused != 0 {
			fused++
		}
	}
	if fused != 1 {
		t.Fatalf("%d fused issue events, want 1", fused)
	}
}
