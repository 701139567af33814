package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"redsoc/internal/isa"
	"redsoc/internal/predict"
	"redsoc/internal/timing"
)

func clock() timing.Clock { return timing.MustClock(timing.DefaultPrecisionBits) }

func TestParamsValidate(t *testing.T) {
	c := clock()
	p := DefaultParams(c)
	if err := p.Validate(c); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	p.ThresholdTicks = 99
	if p.Validate(c) == nil {
		t.Fatal("oversized threshold must fail validation")
	}
	bad := Params{EGPW: true}
	if bad.Validate(c) == nil {
		t.Fatal("EGPW without recycling must fail validation")
	}
}

func TestPlanSynchronousClocksAtBoundaries(t *testing.T) {
	c := clock()
	// Parent completes at tick 11 (cycle 1, frac 3); consumer arrives at
	// cycle 1 (tick 8). Synchronous start must wait for the edge at tick 16.
	s := PlanSynchronous(c, 8, 11, 8)
	if s.Start != 16 || s.Comp != 24 || s.Recycled || s.FUCycles != 1 {
		t.Fatalf("schedule = %+v", s)
	}
	// Parents long done: start at arrival.
	s = PlanSynchronous(c, 16, 5, 8)
	if s.Start != 16 || s.Comp != 24 {
		t.Fatalf("schedule = %+v", s)
	}
	// Multi-cycle: 3 cycles of EX-TIME.
	s = PlanSynchronous(c, 8, 0, 24)
	if s.Comp != 8+24 || s.FUCycles != 3 {
		t.Fatalf("multi-cycle schedule = %+v", s)
	}
	// Sub-cycle EX-TIME still occupies a full cycle.
	s = PlanSynchronous(c, 8, 0, 5)
	if s.Comp != 16 || s.FUCycles != 1 {
		t.Fatalf("sub-cycle sync schedule = %+v", s)
	}
}

func TestPlanTransparentRecycles(t *testing.T) {
	c := clock()
	// Paper Fig. 4c, scaled to ticks (0.8ns/0.6ns/0.5ns at 500ps cycle →
	// but in our 8-tick world): parent completes at tick 13 inside the
	// consumer's arrival cycle [8,16); consumer EX-TIME 5 ticks.
	s, ok := PlanTransparent(c, 8, 13, 5)
	if !ok {
		t.Fatal("transparent plan must succeed")
	}
	if !s.Recycled || s.Start != 13 || s.Comp != 18 {
		t.Fatalf("schedule = %+v", s)
	}
	if s.FUCycles != 2 {
		t.Fatalf("evaluation 13..18 crosses tick 16; FU must be held 2 cycles, got %d", s.FUCycles)
	}
}

func TestPlanTransparentNoCrossingSingleCycleHold(t *testing.T) {
	c := clock()
	// Parent completes at tick 9, consumer EX-TIME 4: window [9,13) inside
	// one cycle -> 1-cycle FU hold (paper IT3).
	s, ok := PlanTransparent(c, 8, 9, 4)
	if !ok || s.FUCycles != 1 || !s.Recycled {
		t.Fatalf("schedule = %+v ok=%v", s, ok)
	}
}

func TestPlanTransparentBoundaryStart(t *testing.T) {
	c := clock()
	// Parents done before arrival: start at the edge, not recycled.
	s, ok := PlanTransparent(c, 16, 10, 6)
	if !ok || s.Recycled || s.Start != 16 || s.Comp != 22 || s.FUCycles != 1 {
		t.Fatalf("schedule = %+v ok=%v", s, ok)
	}
	// Exactly at the edge counts as ready (not recycled).
	s, ok = PlanTransparent(c, 16, 16, 8)
	if !ok || s.Recycled || s.Start != 16 {
		t.Fatalf("schedule = %+v ok=%v", s, ok)
	}
}

func TestPlanTransparentRejectsLateParents(t *testing.T) {
	c := clock()
	// Parent completes a full cycle after arrival: the speculative issue
	// cannot be honored.
	if _, ok := PlanTransparent(c, 8, 16, 4); ok {
		t.Fatal("parents completing at/after the next edge must fail the plan")
	}
	if _, ok := PlanTransparent(c, 8, 40, 4); ok {
		t.Fatal("far-future parents must fail the plan")
	}
}

// Property: transparent scheduling never starts before the parent value
// stabilizes nor before FU arrival, and always completes no later than a
// synchronous schedule would.
func TestTransparentNeverWorseProperty(t *testing.T) {
	c := clock()
	f := func(arrCyc uint8, parentOff uint8, ex uint8) bool {
		arrival := c.CycleStart(int64(arrCyc % 50))
		parentReady := arrival - 8 + timing.Ticks(parentOff%16)
		if parentReady < 0 {
			parentReady = 0
		}
		exTicks := timing.Ticks(ex%8) + 1
		tr, ok := PlanTransparent(c, arrival, parentReady, exTicks)
		if !ok {
			return true // out of the recycling window; nothing to compare
		}
		if tr.Start < arrival && tr.Start < parentReady {
			return false
		}
		sync := PlanSynchronous(c, arrival, parentReady, exTicks)
		return tr.Comp <= sync.Comp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRecycleEligibleThreshold(t *testing.T) {
	c := clock()
	p := DefaultParams(c) // threshold 6
	// Parent CI at frac 5 of the exec cycle: eligible.
	if !p.RecycleEligible(c, 8, 13) {
		t.Fatal("frac 5 <= threshold 6 must be eligible")
	}
	// Frac 7 exceeds the threshold: too little slack left.
	if p.RecycleEligible(c, 8, 15) {
		t.Fatal("frac 7 > threshold 6 must be ineligible")
	}
	// CI at the window edges is not "inside" the cycle.
	if p.RecycleEligible(c, 8, 8) || p.RecycleEligible(c, 8, 16) {
		t.Fatal("boundary CIs must be ineligible")
	}
	// Recycling off disables everything.
	off := Params{}
	if off.RecycleEligible(c, 8, 13) {
		t.Fatal("recycling disabled must never be eligible")
	}
}

func TestIssueEligible(t *testing.T) {
	c := clock()
	p := DefaultParams(c)
	// Conventional: parents done by window start.
	if !p.IssueEligible(c, 16, 16, false) || !p.IssueEligible(c, 16, 3, false) {
		t.Fatal("conventional eligibility broken")
	}
	// Late parents, non-transparent op: not eligible.
	if p.IssueEligible(c, 16, 20, false) {
		t.Fatal("sync op with late parents must not issue")
	}
	// Late parents inside the window, transparent op: eligible via recycling.
	if !p.IssueEligible(c, 16, 20, true) {
		t.Fatal("transparent op must issue into its producer's completion cycle")
	}
}

func TestEstimatorBucketsAndWidths(t *testing.T) {
	c := clock()
	lut := timing.NewLUT(c)
	wp := predict.NewWidthPredictor(64, 2)
	est := NewEstimator(lut, wp, DefaultParams(c))

	// Logic op: no width prediction involved, high slack.
	and := isa.Instruction{Op: isa.OpAND, PC: 0x10, Dst: isa.R(1), Src1: isa.R(2), Src2: isa.R(3)}
	e := est.Estimate(&and)
	if e.Predicted {
		t.Error("logic ops must not consult the width predictor")
	}
	if e.ExTicks >= 8 {
		t.Errorf("AND EX-TIME = %d ticks, expected sub-cycle", e.ExTicks)
	}

	// Arith op: width predicted; cold prediction is conservative w64.
	add := isa.Instruction{Op: isa.OpADD, PC: 0x14, Dst: isa.R(1), Src1: isa.R(2), Src2: isa.R(3)}
	e = est.Estimate(&add)
	if !e.Predicted || e.Width != isa.Width64 {
		t.Errorf("cold arith estimate = %+v", e)
	}
	wide := e.ExTicks

	// Train the predictor narrow; EX-TIME must drop.
	for i := 0; i < 4; i++ {
		est.Validate(&add, est.Estimate(&add), isa.Width8)
	}
	e = est.Estimate(&add)
	if e.Width != isa.Width8 || e.ExTicks >= wide {
		t.Errorf("trained estimate = %+v (wide was %d)", e, wide)
	}

	// SIMD: width comes from the lane, not the predictor.
	v := isa.Instruction{Op: isa.OpVADD, Lane: isa.Lane8, PC: 0x18, Dst: isa.V(1), Src1: isa.V(2), Src2: isa.V(3)}
	e = est.Estimate(&v)
	if e.Predicted || e.Width != isa.Width8 {
		t.Errorf("SIMD estimate = %+v", e)
	}

	// Multi-cycle: full-cycle EX-TIME.
	mul := isa.Instruction{Op: isa.OpMUL, PC: 0x1c, Dst: isa.R(1), Src1: isa.R(2), Src2: isa.R(3)}
	if e := est.Estimate(&mul); e.ExTicks != 8 {
		t.Errorf("MUL EX-TIME = %d ticks, want 8", e.ExTicks)
	}
}

func TestEstimatorValidateDetectsAggressive(t *testing.T) {
	c := clock()
	est := NewEstimator(timing.NewLUT(c), predict.NewWidthPredictor(64, 2), DefaultParams(c))
	add := isa.Instruction{Op: isa.OpADD, PC: 0x20, Dst: isa.R(1), Src1: isa.R(2), Src2: isa.R(3)}
	// Train narrow, then feed a wide actual: aggressive.
	for i := 0; i < 4; i++ {
		est.Validate(&add, est.Estimate(&add), isa.Width8)
	}
	e := est.Estimate(&add)
	if e.Width != isa.Width8 {
		t.Fatal("training failed")
	}
	if !est.Validate(&add, e, isa.Width64) {
		t.Fatal("narrow prediction with wide operands must be aggressive")
	}
	if est.CorrectedTicks(&add, isa.Width64) <= e.ExTicks {
		t.Fatal("corrected EX-TIME must exceed the aggressive estimate")
	}
}

func TestEstimatorWidthPredictionDisabled(t *testing.T) {
	c := clock()
	p := DefaultParams(c)
	p.WidthPrediction = false
	est := NewEstimator(timing.NewLUT(c), predict.NewWidthPredictor(64, 2), p)
	add := isa.Instruction{Op: isa.OpADD, PC: 0x24, Dst: isa.R(1), Src1: isa.R(2), Src2: isa.R(3)}
	e := est.Estimate(&add)
	if e.Predicted || e.Width != isa.Width64 {
		t.Fatalf("estimate with width prediction off = %+v", e)
	}
	if est.Validate(&add, e, isa.Width8) {
		t.Fatal("unpredicted estimates are never aggressive")
	}
}

// sortSpec is the behavioral specification of the arbiter: non-speculative
// requests oldest-first, then speculative oldest-first (when skewed);
// pure oldest-first otherwise.
func sortSpec(reqs []Request, m int, skewed bool) []int {
	idx := make([]int, len(reqs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ra, rb := reqs[idx[a]], reqs[idx[b]]
		if skewed && ra.Spec != rb.Spec {
			return !ra.Spec
		}
		return ra.Age < rb.Age
	})
	if len(idx) > m {
		idx = idx[:m]
	}
	return idx
}

func TestArbiterPaperExample(t *testing.T) {
	// Fig. 9b: entries 1,2,3 awake; entry 2 non-speculative, 1 and 3
	// speculative; ages follow the mask table (0 oldest, then 3, 1, 2...).
	// In the figure's mask table: entry1 mask 1001 (older: 0,3), entry2 mask
	// 1101 (older: 0,1,3), entry3 mask 1000 (older: 0). So age order is
	// 0 < 3 < 1 < 2.
	reqs := []Request{
		{Age: 2, Spec: true},  // entry 1
		{Age: 3, Spec: false}, // entry 2
		{Age: 1, Spec: true},  // entry 3
	}
	g := NewArbiter(true).Grant(reqs, 1)
	if len(g) != 1 || g[0] != 1 {
		t.Fatalf("skewed grant = %v, want entry index 1 (the non-speculative request)", g)
	}
	// Unskewed: the oldest (entry 3) wins.
	g = NewArbiter(false).Grant(reqs, 1)
	if len(g) != 1 || g[0] != 2 {
		t.Fatalf("conventional grant = %v, want entry index 2 (oldest)", g)
	}
}

func TestArbiterMultipleGrants(t *testing.T) {
	reqs := []Request{
		{Age: 5, Spec: true},
		{Age: 1, Spec: false},
		{Age: 3, Spec: true},
		{Age: 2, Spec: false},
	}
	g := NewArbiter(true).Grant(reqs, 3)
	want := []int{1, 3, 2} // both non-spec by age, then oldest spec
	if len(g) != 3 || g[0] != want[0] || g[1] != want[1] || g[2] != want[2] {
		t.Fatalf("grants = %v, want %v", g, want)
	}
}

func TestArbiterEdgeCases(t *testing.T) {
	a := NewArbiter(true)
	if g := a.Grant(nil, 4); g != nil {
		t.Fatal("no requests -> no grants")
	}
	if g := a.Grant([]Request{{Age: 1}}, 0); g != nil {
		t.Fatal("no FUs -> no grants")
	}
	if g := a.Grant([]Request{{Age: 1}, {Age: 2}}, 10); len(g) != 2 {
		t.Fatal("grants must be capped by requests")
	}
}

// Property: the mask-based circuit matches the sort-based specification for
// random request sets, skewed and not, including across the 64-bit bitset
// word boundary.
func TestArbiterMatchesSpecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(80) // crosses the word boundary at 64
		reqs := make([]Request, n)
		ages := rng.Perm(1000)
		for i := range reqs {
			reqs[i] = Request{Age: int64(ages[i]), Spec: rng.Intn(2) == 0}
		}
		m := 1 + rng.Intn(6)
		for _, skewed := range []bool{false, true} {
			got := NewArbiter(skewed).Grant(reqs, m)
			want := sortSpec(reqs, m, skewed)
			if len(got) != len(want) {
				t.Fatalf("trial %d skew=%v: grants %v, want %v", trial, skewed, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d skew=%v: grants %v, want %v", trial, skewed, got, want)
				}
			}
			// The gate-level Fig. 9 circuit must produce the identical
			// grant sequence: it is the executable specification the
			// selection sweep is an optimization of.
			circuit := NewArbiter(skewed).grantCircuit(reqs, m)
			if len(circuit) != len(want) {
				t.Fatalf("trial %d skew=%v: circuit grants %v, want %v", trial, skewed, circuit, want)
			}
			for i := range want {
				if circuit[i] != want[i] {
					t.Fatalf("trial %d skew=%v: circuit grants %v, want %v", trial, skewed, circuit, want)
				}
			}
			// GrantSorted on the age-sorted permutation must match Grant on
			// the same (sorted) input.
			sorted := append([]Request(nil), reqs...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].Age < sorted[j].Age })
			fast := NewArbiter(skewed).GrantSorted(sorted, m)
			slow := NewArbiter(skewed).Grant(sorted, m)
			if len(fast) != len(slow) {
				t.Fatalf("trial %d skew=%v: GrantSorted %v, Grant %v", trial, skewed, fast, slow)
			}
			for i := range slow {
				if fast[i] != slow[i] {
					t.Fatalf("trial %d skew=%v: GrantSorted %v, Grant %v", trial, skewed, fast, slow)
				}
			}
		}
	}
}

func TestSeqTracker(t *testing.T) {
	tr := NewSeqTracker()
	tr.Record(1) // ignored: not a transparent sequence
	tr.Record(2)
	tr.Record(2)
	tr.Record(6)
	if tr.Count() != 3 {
		t.Fatalf("Count = %d", tr.Count())
	}
	if got := tr.MeanLength(); got < 3.32 || got > 3.34 {
		t.Fatalf("MeanLength = %v", got)
	}
	// Weighted: (4+4+36)/(2+2+6) = 44/10 = 4.4
	if got := tr.ExpectedLength(); got != 4.4 {
		t.Fatalf("ExpectedLength = %v", got)
	}
	other := NewSeqTracker()
	other.Record(4)
	tr.Merge(other)
	if tr.Count() != 4 {
		t.Fatalf("merged Count = %d", tr.Count())
	}
	if tr.Histogram()[4] != 1 {
		t.Fatal("histogram lost the merged entry")
	}
}

func TestSeqTrackerEmpty(t *testing.T) {
	tr := NewSeqTracker()
	if tr.MeanLength() != 0 || tr.ExpectedLength() != 0 || tr.Count() != 0 {
		t.Fatal("empty tracker must report zeros")
	}
}

// TestSeqTrackerOf: a tracker rebuilt from another's histogram reports the
// same statistics and histogram, and a nil histogram gives an empty tracker
// that still records.
func TestSeqTrackerOf(t *testing.T) {
	tr := NewSeqTracker()
	for _, l := range []int{2, 2, 6, 9} {
		tr.Record(l)
	}
	back := SeqTrackerOf(tr.Histogram())
	if !reflect.DeepEqual(back.Histogram(), tr.Histogram()) || back.ExpectedLength() != tr.ExpectedLength() {
		t.Fatalf("rebuilt tracker histogram %v, want %v", back.Histogram(), tr.Histogram())
	}
	empty := SeqTrackerOf(nil)
	if !reflect.DeepEqual(empty, NewSeqTracker()) {
		t.Fatal("a nil histogram must give the same tracker as NewSeqTracker")
	}
	if empty.Record(3); empty.Count() != 1 {
		t.Fatal("a tracker built from a nil histogram must record")
	}
}

func TestArbiterLoneSpeculativeWins(t *testing.T) {
	// A lone speculative requester must still be granted under skewing: the
	// self-mask clearing in Fig. 9b keeps an entry from blocking itself.
	g := NewArbiter(true).Grant([]Request{{Age: 7, Spec: true}}, 1)
	if len(g) != 1 || g[0] != 0 {
		t.Fatalf("lone speculative grant = %v, want [0]", g)
	}
}

func TestArbiterAllSpeculativeOldestFirst(t *testing.T) {
	// With no non-speculative competition, skewing must degrade to plain
	// oldest-first among the speculative group.
	reqs := []Request{
		{Age: 30, Spec: true},
		{Age: 10, Spec: true},
		{Age: 20, Spec: true},
	}
	g := NewArbiter(true).Grant(reqs, 2)
	if len(g) != 2 || g[0] != 1 || g[1] != 2 {
		t.Fatalf("all-speculative grants = %v, want [1 2]", g)
	}
}

func TestArbiterYoungNonSpecBeatsOldSpec(t *testing.T) {
	// The skew is absolute: the youngest parent-woken request outranks the
	// oldest grandparent-woken one, in both grant order and a m=1 cutoff.
	reqs := []Request{
		{Age: 1, Spec: true},
		{Age: 100, Spec: false},
	}
	g := NewArbiter(true).Grant(reqs, 1)
	if len(g) != 1 || g[0] != 1 {
		t.Fatalf("skewed m=1 grant = %v, want [1]", g)
	}
	g = NewArbiter(true).Grant(reqs, 2)
	if len(g) != 2 || g[0] != 1 || g[1] != 0 {
		t.Fatalf("skewed m=2 grants = %v, want [1 0]", g)
	}
	// Without skewing, age decides.
	g = NewArbiter(false).Grant(reqs, 1)
	if len(g) != 1 || g[0] != 0 {
		t.Fatalf("conventional grant = %v, want [0]", g)
	}
}

func TestArbiterNegativeGrantCount(t *testing.T) {
	if g := NewArbiter(false).Grant([]Request{{Age: 1}}, -3); g != nil {
		t.Fatalf("negative m must grant nothing, got %v", g)
	}
}
