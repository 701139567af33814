package baseline_test

import (
	"math"
	"testing"

	"redsoc/internal/baseline"
	"redsoc/internal/harness"
	"redsoc/internal/ooo"
	"redsoc/internal/timing"
)

// densePeriod is ChoosePeriod as it was over a dense per-picosecond
// histogram: scan every period from ClockPS down, keeping the error bound.
// The sparse scan must agree with it exactly.
func densePeriod(hist *[timing.ClockPS + 1]int64, maxErr float64) (int, float64) {
	var total int64
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		return timing.ClockPS, 0
	}
	var tail int64
	period, errAt := timing.ClockPS, 0.0
	for t := timing.ClockPS; t >= 1; t-- {
		rate := float64(tail) / float64(total)
		if rate > maxErr {
			break
		}
		period, errAt = t, rate
		tail += hist[t]
	}
	return period, errAt
}

// dense expands a sparse histogram into per-picosecond counts.
func dense(h ooo.DelayHistogram) *[timing.ClockPS + 1]int64 {
	var d [timing.ClockPS + 1]int64
	for _, b := range h {
		d[b.PS] += b.Ops
	}
	return &d
}

var budgets = []float64{baseline.MaxErrorRate, baseline.MinErrorRate, 0, 0.05, 0.5, 1, -1, math.NaN()}

func checkAgainstDense(t *testing.T, name string, h ooo.DelayHistogram) {
	t.Helper()
	for _, maxErr := range budgets {
		p, e := baseline.ChoosePeriod(h, maxErr)
		wp, we := densePeriod(dense(h), maxErr)
		if p != wp || e != we {
			t.Errorf("%s at budget %v: sparse (%d ps, %v), dense (%d ps, %v)", name, maxErr, p, e, wp, we)
		}
	}
}

// TestChoosePeriodMatchesDenseScan: the sparse scan picks the dense scan's
// period and error rate on edge cases, at every budget.
func TestChoosePeriodMatchesDenseScan(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    ooo.DelayHistogram
	}{
		{"empty", nil},
		{"one bin at ClockPS", ooo.DelayHistogram{{PS: timing.ClockPS, Ops: 7}}},
		{"one bin at 1 ps", ooo.DelayHistogram{{PS: 1, Ops: 3}}},
		{"one bin at 0 ps", ooo.DelayHistogram{{PS: 0, Ops: 3}}},
		{"bins at 0 and 1 ps", ooo.DelayHistogram{{PS: 0, Ops: 2}, {PS: 1, Ops: 1}}},
		{"stage bins", ooo.DelayHistogram{{PS: 212, Ops: 900}, {PS: 480, Ops: 40}, {PS: 485, Ops: 3}, {PS: 490, Ops: 5}, {PS: 495, Ops: 2}}},
		{"stage bins only", ooo.DelayHistogram{{PS: 480, Ops: 10}, {PS: 485, Ops: 10}, {PS: 490, Ops: 10}, {PS: 495, Ops: 10}}},
		// 1 of 100 ops above 200 ps: an error rate of exactly MaxErrorRate,
		// which the bound admits.
		{"rate exactly at MaxErrorRate", ooo.DelayHistogram{{PS: 200, Ops: 99}, {PS: 450, Ops: 1}}},
		{"top bin at MaxErrorRate", ooo.DelayHistogram{{PS: 100, Ops: 99}, {PS: timing.ClockPS, Ops: 1}}},
	} {
		checkAgainstDense(t, tc.name, tc.h)
	}
	p, e := baseline.ChoosePeriod(ooo.DelayHistogram{{PS: 200, Ops: 99}, {PS: 450, Ops: 1}}, baseline.MaxErrorRate)
	if p != 200 || e != baseline.MaxErrorRate {
		t.Errorf("a rate exactly at the bound: period %d, rate %v; want 200, %v", p, e, baseline.MaxErrorRate)
	}
}

// TestChoosePeriodMatchesDenseScanOnQuickGrid: the same agreement on the
// baseline run of every quick-grid benchmark on every core, the histograms
// TS reads in the grid.
func TestChoosePeriodMatchesDenseScanOnQuickGrid(t *testing.T) {
	for _, b := range harness.Benchmarks(harness.Quick) {
		for _, cfg := range harness.Cores() {
			res, err := ooo.Run(cfg.WithPolicy(ooo.PolicyBaseline), b.Prog)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.DelayHistogram) == 0 {
				t.Fatalf("%s/%s: empty delay histogram", b.Name, cfg.Name)
			}
			checkAgainstDense(t, b.Name+"/"+cfg.Name, res.DelayHistogram)
		}
	}
}
