package ooo

import (
	"slices"
	"testing"

	"redsoc/internal/workload/mibench"
)

// Determinism regression tests: the simulator is a discrete-event model with
// no intended randomness beyond seeded workload generation, so running the
// same program through the same config twice must reproduce every statistic
// bit-for-bit. A divergence means nondeterminism crept into the scheduler
// (map iteration, goroutines, ...) — exactly what the simdeterminism
// analyzer polices statically. These tests are also run under -race in CI.

// sameResult compares every statistic two runs of one program must share.
func sameResult(t *testing.T, a, b *Result) {
	t.Helper()
	if a.Cycles != b.Cycles {
		t.Errorf("Cycles differ: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.Instructions != b.Instructions {
		t.Errorf("Instructions differ: %d vs %d", a.Instructions, b.Instructions)
	}
	if a.Mix != b.Mix {
		t.Errorf("Mix differs: %+v vs %+v", a.Mix, b.Mix)
	}
	counters := [][2]int64{
		{a.RecycledOps, b.RecycledOps},
		{a.TwoCycleHolds, b.TwoCycleHolds},
		{a.GPWakeupGrants, b.GPWakeupGrants},
		{a.GPWakeupWasted, b.GPWakeupWasted},
		{a.TagMispredicts, b.TagMispredicts},
		{a.WidthReplays, b.WidthReplays},
		{a.FusedOps, b.FusedOps},
		{a.FUStallCycles, b.FUStallCycles},
		{a.IssueCycles, b.IssueCycles},
		{a.StallRedirect, b.StallRedirect},
		{a.StallROB, b.StallROB},
		{a.StallRSE, b.StallRSE},
		{a.StallLSQ, b.StallLSQ},
		{a.ThresholdAdjustments, b.ThresholdAdjustments},
		{int64(a.FinalThreshold), int64(b.FinalThreshold)},
		{a.PVTRecalibrations, b.PVTRecalibrations},
		{a.TimingViolations, b.TimingViolations},
		{a.ViolationReplays, b.ViolationReplays},
		{a.DegradationEvents, b.DegradationEvents},
		{a.DegradeRearms, b.DegradeRearms},
		{a.DegradedCycles, b.DegradedCycles},
	}
	for i, c := range counters {
		if c[0] != c[1] {
			t.Errorf("counter %d differs: %d vs %d", i, c[0], c[1])
		}
	}
	if !slices.Equal(a.DelayHistogram, b.DelayHistogram) {
		t.Error("DelayHistogram differs")
	}
	if len(a.HeadWait) != len(b.HeadWait) {
		t.Errorf("HeadWait sizes differ: %d vs %d", len(a.HeadWait), len(b.HeadWait))
	}
	for class, v := range a.HeadWait { //lint:allow simdeterminism order-independent: per-key equality
		if b.HeadWait[class] != v {
			t.Errorf("HeadWait[%s] differs: %d vs %d", class, v, b.HeadWait[class])
		}
	}
	ha, hb := a.Sequences.Histogram(), b.Sequences.Histogram()
	if len(ha) != len(hb) {
		t.Errorf("sequence histogram sizes differ: %d vs %d", len(ha), len(hb))
	}
	for l, c := range ha { //lint:allow simdeterminism order-independent: per-key equality
		if hb[l] != c {
			t.Errorf("sequence histogram[%d] differs: %d vs %d", l, c, hb[l])
		}
	}
	if a.WidthPredictor != b.WidthPredictor {
		t.Errorf("width predictor stats differ: %+v vs %+v", a.WidthPredictor, b.WidthPredictor)
	}
	if a.LastArrival != b.LastArrival {
		t.Errorf("last-arrival stats differ: %+v vs %+v", a.LastArrival, b.LastArrival)
	}
	if a.Branches != b.Branches {
		t.Errorf("branch stats differ: %+v vs %+v", a.Branches, b.Branches)
	}
	if a.MemStats != b.MemStats {
		t.Errorf("memory stats differ: %+v vs %+v", a.MemStats, b.MemStats)
	}
	if a.FaultStats != b.FaultStats {
		t.Errorf("fault stats differ: %+v vs %+v", a.FaultStats, b.FaultStats)
	}
	if !a.ArchEqual(b) {
		t.Error("architectural state differs between identical runs")
	}
}

func TestDeterministicRepeatRedsoc(t *testing.T) {
	p, _ := mibench.Bitcount(400, 21)
	cfg := MediumConfig().WithPolicy(PolicyRedsoc)
	first := run(t, cfg, p)
	second := run(t, cfg, p)
	sameResult(t, first, second)
}

func TestDeterministicRepeatBaseline(t *testing.T) {
	p, _ := mibench.GSM(120, 22)
	cfg := SmallConfig().WithPolicy(PolicyBaseline)
	first := run(t, cfg, p)
	second := run(t, cfg, p)
	sameResult(t, first, second)
}
