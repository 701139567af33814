// Package baseline implements the paper's two comparison points (Sec. VI-D):
// TS, a Razor-style timing-speculation scheme that statically raises the
// clock frequency until the data-dependent timing-error rate hits a bound,
// and MOS, dynamic operation fusion (implemented as a scheduling policy in
// internal/ooo; this package provides its harness entry point alongside TS).
package baseline

import (
	"context"
	"fmt"

	"redsoc/internal/isa"
	"redsoc/internal/ooo"
	"redsoc/internal/timing"
)

// TSResult describes one timing-speculation operating point.
type TSResult struct {
	// PeriodPS is the overclocked period chosen.
	PeriodPS int
	// ErrorRate is the fraction of single-cycle computations whose actual
	// delay exceeds the period (each would be a timing error).
	ErrorRate float64
	// Speedup is wall-clock speedup over the 500 ps baseline, accounting for
	// memory latencies that do not scale with core frequency. Recovery cost
	// is NOT modeled, so this is optimistic — as in the paper.
	Speedup float64
	// Cycles is the cycle count of the re-run at the scaled memory latencies.
	Cycles int64
}

// MaxErrorRate and MinErrorRate bound the paper's TS configuration: the
// frequency is fixed so the error rate lies between 0.01% and 1%.
const (
	MaxErrorRate = 0.01
	MinErrorRate = 0.0001
)

// ChoosePeriod picks the shortest clock period whose error rate (fraction of
// single-cycle ops with delay > period) does not exceed maxErr, given the
// per-picosecond delay histogram of a baseline run. The period is never
// pushed below the point where errors would exceed the bound, nor below
// 1 ps, and never above the nominal ClockPS.
//
// The error rate only changes where a bin is, so the scan walks the bins
// from the top: the ops above the current bin all err at every period from
// the previous bin's delay down to this bin's, and a period at a bin's own
// delay still meets that bin's timing.
func ChoosePeriod(hist ooo.DelayHistogram, maxErr float64) (periodPS int, errRate float64) {
	var total int64
	for _, b := range hist {
		total += b.Ops
	}
	if total == 0 {
		return timing.ClockPS, 0
	}
	var tail int64 // ops with delay above the period under test
	period := timing.ClockPS
	errAt := 0.0
	for i := len(hist) - 1; ; i-- {
		low := 1 // the lowest period at which tail stays the same
		if i >= 0 {
			low = max(hist[i].PS, 1)
		}
		rate := float64(tail) / float64(total)
		if rate > maxErr {
			break
		}
		period, errAt = low, rate
		if low == 1 {
			break
		}
		tail += hist[i].Ops
	}
	return period, errAt
}

// Runner runs one engine simulation, stopping early once its context ends.
// ooo.RunContext is the plain runner; a grid campaign passes its
// compute-once run cache, so a simulation the sweep and a cell both need
// runs once. A runner's results are read-only.
type Runner func(context.Context, ooo.Config, *isa.Program) (*ooo.Result, error)

// RunTS evaluates timing speculation for a program on a core: run the
// baseline to collect the actual-delay histogram, then evaluate TS from it
// (see Runner.TS).
func RunTS(cfg ooo.Config, prog *isa.Program) (TSResult, error) {
	base, err := ooo.Run(cfg.WithPolicy(ooo.PolicyBaseline), prog)
	if err != nil {
		return TSResult{}, fmt.Errorf("baseline run: %w", err)
	}
	return Runner(ooo.RunContext).TS(context.Background(), cfg, prog, base)
}

// TS evaluates timing speculation from base, the program's baseline run on
// cfg, under ctx: choose the overclocked period from its actual-delay histogram, then
// re-run with memory latencies rescaled (DRAM time is constant in
// nanoseconds, so it costs more of the shorter cycles) and convert the cycle
// counts to wall-clock speedup.
func (run Runner) TS(ctx context.Context, cfg ooo.Config, prog *isa.Program, base *ooo.Result) (TSResult, error) {
	period, errRate := ChoosePeriod(base.DelayHistogram, MaxErrorRate)
	if period >= timing.ClockPS {
		return TSResult{PeriodPS: timing.ClockPS, ErrorRate: errRate, Speedup: 1, Cycles: base.Cycles}, nil
	}
	scaled := cfg.WithPolicy(ooo.PolicyBaseline)
	scaled.Mem.L2Latency = scaleLatency(scaled.Mem.L2Latency, period)
	scaled.Mem.DRAMLatency = scaleLatency(scaled.Mem.DRAMLatency, period)
	res, err := run(ctx, scaled, prog)
	if err != nil {
		return TSResult{}, fmt.Errorf("scaled run: %w", err)
	}
	baseWall := float64(base.Cycles) * timing.ClockPS
	tsWall := float64(res.Cycles) * float64(period)
	return TSResult{
		PeriodPS:  period,
		ErrorRate: errRate,
		Speedup:   baseWall / tsWall,
		Cycles:    res.Cycles,
	}, nil
}

// scaleLatency converts a latency expressed in nominal 500 ps cycles into
// the equivalent count of shorter cycles (L1 stays pipelined with the core;
// L2/DRAM are wall-clock-bound).
func scaleLatency(cycles, periodPS int) int {
	ns := cycles * timing.ClockPS
	return (ns + periodPS - 1) / periodPS
}

// Comparison bundles the Fig. 15 data for one benchmark × core, plus the
// dynamic-delay policy head-to-head (loaddelay, speclsq).
type Comparison struct {
	Benchmark string
	Core      string
	// Runs holds the engine runs, one per scheduler policy, indexed by
	// ooo.Policy. TS is a re-timed baseline, not an engine run.
	Runs [ooo.NumPolicies]*ooo.Result
	TS   TSResult
}

// Speedup returns policy p's speedup over the shared baseline run.
func (c *Comparison) Speedup(p ooo.Policy) float64 {
	return c.Runs[p].SpeedupOver(c.Runs[ooo.PolicyBaseline])
}

// EngineConfigs returns the configurations of a comparison's engine runs
// on cfg, indexed by ooo.Policy like Comparison.Runs: each scheduler on
// cfg, ReDSOC at the given slack threshold. It is the one definition of
// what Compare runs, so a journaled cell can name its results' configs by
// (cfg, threshold) instead of storing them.
func EngineConfigs(cfg ooo.Config, threshold int) []ooo.Config {
	cfgs := make([]ooo.Config, ooo.NumPolicies)
	for p := range ooo.NumPolicies {
		cfgs[p] = cfg.WithPolicy(p)
	}
	cfgs[ooo.PolicyRedsoc].Redsoc.ThresholdTicks = threshold
	return cfgs
}

// DefaultThreshold is the paper's default ReDSOC slack threshold on cfg
// (3/4 of a cycle at cfg's slack precision).
func DefaultThreshold(cfg ooo.Config) int {
	return cfg.WithPolicy(ooo.PolicyRedsoc).Redsoc.ThresholdTicks
}

// Compare runs every scheduler of one benchmark on one core with
// ooo.RunContext; see Runner.Compare.
func Compare(ctx context.Context, cfg ooo.Config, prog *isa.Program, threshold int) (*Comparison, error) {
	return Runner(ooo.RunContext).Compare(ctx, cfg, prog, threshold)
}

// Compare runs every engine policy of one benchmark on one core (ReDSOC at
// the given slack threshold) and TS from the baseline run. It compares no
// architectural state across policies: ooo.Run fails any run that does not
// end in its program's final state. Every run takes ctx, so ending it stops
// the comparison at the running simulation's next context poll.
func (run Runner) Compare(ctx context.Context, cfg ooo.Config, prog *isa.Program, threshold int) (*Comparison, error) {
	cmp := &Comparison{Benchmark: prog.Name, Core: cfg.Name}
	for p, rc := range EngineConfigs(cfg, threshold) {
		res, err := run(ctx, rc, prog)
		if err != nil {
			return nil, err
		}
		cmp.Runs[p] = res
	}
	ts, err := run.TS(ctx, cfg, prog, cmp.Runs[ooo.PolicyBaseline])
	if err != nil {
		return nil, err
	}
	cmp.TS = ts
	return cmp, nil
}
