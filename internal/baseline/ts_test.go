package baseline

import (
	"context"
	"testing"

	"redsoc/internal/isa"
	"redsoc/internal/ooo"
	"redsoc/internal/timing"
	"redsoc/internal/workload"
)

func TestChoosePeriodEmpty(t *testing.T) {
	p, e := ChoosePeriod(nil, MaxErrorRate)
	if p != timing.ClockPS || e != 0 {
		t.Fatalf("empty histogram: period %d err %v", p, e)
	}
}

func TestChoosePeriodRespectsErrorBudget(t *testing.T) {
	// 1000 fast ops at 200 ps, 5 slow ops at 450 ps: 0.5% slow.
	hist := ooo.DelayHistogram{{PS: 200, Ops: 1000}, {PS: 450, Ops: 5}}
	p, e := ChoosePeriod(hist, 0.01)
	// The 450 ps ops are within the 1% budget, so the period can drop to
	// just above the fast ops.
	if p > 250 {
		t.Fatalf("period %d, want <= 250 (slow ops within budget)", p)
	}
	if e == 0 || e > 0.01 {
		t.Fatalf("error rate %v outside (0, 1%%]", e)
	}
	// With a tiny budget the slow ops pin the period at (or above) their
	// 450 ps delay — they meet timing exactly at 450 but fail below it.
	p2, _ := ChoosePeriod(hist, 0.001)
	if p2 < 450 {
		t.Fatalf("strict budget must keep period at/above the slow ops, got %d", p2)
	}
}

func TestChoosePeriodMonotoneInBudget(t *testing.T) {
	var hist ooo.DelayHistogram
	for d := 150; d <= 500; d += 10 {
		hist = append(hist, ooo.DelayBin{PS: d, Ops: int64(d)})
	}
	prev := timing.ClockPS + 1
	for _, budget := range []float64{0.0001, 0.001, 0.01, 0.1} {
		p, _ := ChoosePeriod(hist, budget)
		if p > prev {
			t.Fatalf("looser budget must not raise the period: %d after %d", p, prev)
		}
		prev = p
	}
}

func TestScaleLatency(t *testing.T) {
	// 12 cycles at 500 ps = 6 ns; at 400 ps that is 15 cycles.
	if got := scaleLatency(12, 400); got != 15 {
		t.Fatalf("scaleLatency(12, 400) = %d, want 15", got)
	}
	if got := scaleLatency(12, 500); got != 12 {
		t.Fatalf("identity scaling broken: %d", got)
	}
}

func logicChain(n int) *isa.Program {
	b := workload.NewBuilder("chain")
	b.MovImm(isa.R(1), 0x5A)
	b.MovImm(isa.R(2), 0x33)
	b.At(0x2000)
	for i := 0; i < n; i++ {
		b.Op3(isa.OpEOR, isa.R(1), isa.R(1), isa.R(2))
	}
	return b.Build()
}

func TestRunTSOnLogicChain(t *testing.T) {
	// Pure logic ops: TS can overclock substantially (no memory, no
	// multi-cycle stages in the histogram beyond the initial MOVs).
	res, err := RunTS(ooo.SmallConfig(), logicChain(300))
	if err != nil {
		t.Fatal(err)
	}
	if res.PeriodPS >= timing.ClockPS {
		t.Fatalf("logic-only code must overclock, period %d", res.PeriodPS)
	}
	if res.Speedup <= 1.0 {
		t.Fatalf("TS speedup = %v", res.Speedup)
	}
	if res.ErrorRate > MaxErrorRate {
		t.Fatalf("error rate %v exceeds budget", res.ErrorRate)
	}
}

func TestRunTSBoundedByMemoryStages(t *testing.T) {
	b := workload.NewBuilder("memmy")
	for i := 0; i < 200; i++ {
		b.At(0x3000)
		b.Load(isa.R(1), isa.R(0), uint64(0x1000+8*(i%16)))
		b.At(0x3004)
		b.Op3(isa.OpEOR, isa.R(2), isa.R(1), isa.R(2))
	}
	res, err := RunTS(ooo.SmallConfig(), b.Build())
	if err != nil {
		t.Fatal(err)
	}
	// Half the ops are cache-pipeline stages at 480 ps: the period cannot
	// drop below them within a 1% error budget.
	if res.PeriodPS < 480 {
		t.Fatalf("memory stages must bound TS, period %d", res.PeriodPS)
	}
	if res.Speedup > 1.1 {
		t.Fatalf("TS speedup %v implausible for memory-heavy code", res.Speedup)
	}
}

func TestCompareBundlesAllFour(t *testing.T) {
	cfg := ooo.SmallConfig()
	cmp, err := Compare(context.Background(), cfg, logicChain(200), DefaultThreshold(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if s := cmp.Speedup(ooo.PolicyRedsoc); s <= 1.0 {
		t.Fatalf("redsoc speedup %v", s)
	}
	if s := cmp.Speedup(ooo.PolicyMOS); s <= 1.0 {
		t.Fatalf("mos speedup %v", s)
	}
	if cmp.TS.Speedup <= 0 {
		t.Fatalf("ts speedup %v", cmp.TS.Speedup)
	}
	if cmp.Benchmark != "chain" || cmp.Core != "Small" {
		t.Fatalf("labels = %q/%q", cmp.Benchmark, cmp.Core)
	}
}

// TestCompareEnginesAndThreshold pins Runs to one engine run per policy,
// indexed by ooo.Policy, and checks that Compare runs ReDSOC at the
// threshold it was given.
func TestCompareEnginesAndThreshold(t *testing.T) {
	cfg := ooo.SmallConfig()
	th := DefaultThreshold(cfg) - 1
	cmp, err := Compare(context.Background(), cfg, logicChain(200), th)
	if err != nil {
		t.Fatal(err)
	}
	for p := range ooo.NumPolicies {
		if got := cmp.Runs[p].Config.Policy; got != p {
			t.Fatalf("Runs[%s] ran %s", p, got)
		}
	}
	if got := cmp.Runs[ooo.PolicyRedsoc].Config.Redsoc.ThresholdTicks; got != th {
		t.Fatalf("redsoc ran at threshold %d, want %d", got, th)
	}
}

// TestCompareRunsEachConfigOnce: Compare takes every simulation from its
// runner, runs each distinct configuration once — TS reuses the baseline
// run instead of repeating it — and its TS matches the standalone RunTS.
func TestCompareRunsEachConfigOnce(t *testing.T) {
	cfg := ooo.SmallConfig()
	prog := logicChain(200)
	runs := map[ooo.Config]int{}
	count := Runner(func(ctx context.Context, c ooo.Config, p *isa.Program) (*ooo.Result, error) {
		runs[c]++
		return ooo.RunContext(ctx, c, p)
	})
	cmp, err := count.Compare(context.Background(), cfg, prog, DefaultThreshold(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 6 {
		t.Fatalf("Compare ran %d distinct configs, want 6 (five engines + the rescaled TS baseline)", len(runs))
	}
	for c, n := range runs {
		if n != 1 {
			t.Errorf("%s/%s ran %d times, want once", c.Name, c.Policy, n)
		}
	}
	ts, err := RunTS(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.TS != ts {
		t.Fatalf("Compare's TS %+v differs from RunTS's %+v", cmp.TS, ts)
	}
}
