package main

import (
	"runtime"
	"time"

	"redsoc/internal/baseline"
	"redsoc/internal/harness"
	"redsoc/internal/isa"
	"redsoc/internal/ooo"
	"redsoc/internal/timing"
	"redsoc/internal/trace"
)

// policies are the five schedulers the ooo engine implements (TS lives in
// internal/baseline and re-runs the baseline).
var policies = []ooo.Policy{ooo.PolicyBaseline, ooo.PolicyRedsoc, ooo.PolicyMOS, ooo.PolicyLoadDelay, ooo.PolicySpecLSQ}

// decodeAll runs trace.Decode over every program: the first decode a
// process pays, timed per program with its instruction count.
func decodeAll(tr *tracer, progs []*isa.Program) {
	for _, p := range progs {
		sp := tr.begin(-1, -1, "trace.Decode")
		trace.Decode(p)
		tr.end(sp, map[string]float64{"instrs": float64(len(p.Instrs))})
	}
}

// buildSuite builds the evaluation suite at a scale and decodes it once.
func buildSuite(tr *tracer, scale harness.Scale) []harness.Benchmark {
	sp := tr.begin(-1, -1, "workload.build")
	bs := harness.Benchmarks(scale)
	tr.end(sp, nil)
	progs := make([]*isa.Program, len(bs))
	for i, b := range bs {
		progs[i] = b.Prog
	}
	decodeAll(tr, progs)
	return bs
}

// simulate is one ooo.New + Run. Traced, it records both calls and counts
// at the Run boundary: the simulated statistics and the heap allocations
// of the New + Run pair.
func simulate(tr *tracer, id, parent int, cfg ooo.Config, p *isa.Program) (*ooo.Result, error) {
	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	sp := tr.begin(id, parent, "ooo.New")
	s, err := ooo.New(cfg, p)
	tr.end(sp, nil)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(id, parent, "ooo.Run")
	res, err := s.Run()
	if tr == nil {
		return res, err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	attrs := map[string]float64{"allocs": float64(after.Mallocs - before.Mallocs)}
	if err == nil {
		attrs["instrs"] = float64(res.Instructions)
		attrs["cycles"] = float64(res.Cycles)
		attrs["issue_cycles"] = float64(res.IssueCycles)
		attrs["recycled"] = float64(res.RecycledOps)
		attrs["gpw_grants"] = float64(res.GPWakeupGrants)
		attrs["gpw_wasted"] = float64(res.GPWakeupWasted)
		attrs["lsq_forwards"] = float64(res.LSQSpecForwards)
		attrs["lsq_misallocs"] = float64(res.LSQMisallocations)
		attrs["mem_accesses"] = float64(res.MemStats.Accesses)
		attrs["mem_l1_hits"] = float64(res.MemStats.L1Hits)
		attrs["mem_dram"] = float64(res.MemStats.DRAMAccesses)
	}
	tr.end(sp, attrs)
	return res, err
}

// gridInstrs counts the instructions one grid run simulates: every cell
// runs the five ooo policies and TS (a baseline run, plus a rescaled run
// unless TS keeps the nominal clock, which is exactly when its speedup is
// 1), and with the sweep on, every (class, core) candidate runs baseline and
// ReDSOC over each benchmark of the class once.
func gridInstrs(rep *harness.Report, sweep bool) float64 {
	total := 0.0
	for _, c := range rep.Cells {
		runs := float64(len(policies)) + 1
		if c.TSSpeedup != 1 {
			runs++
		}
		if sweep {
			runs += 2 * float64(len(harness.ThresholdCandidates))
		}
		total += runs * float64(c.Instructions)
	}
	return total
}

// renderReport is what a user of the grid reads: the machine-readable
// report, the evaluation's figure tables and the per-run metrics set.
func renderReport(tr *tracer, id, parent int, g *harness.Grid, scale string) *harness.Report {
	sp := tr.begin(id, parent, "harness.report")
	rep := g.Report()
	rep.Scale = scale
	for _, t := range []interface{ String() string }{
		g.Fig10Table(), g.Fig11Table(), g.Fig12Table(), g.Fig13Table(),
		g.Fig14Table(), g.Fig15Table(), g.ThresholdTable(), g.PowerTable(),
	} {
		_ = t.String()
	}
	_ = g.MetricsSet(scale)
	tr.end(sp, nil)
	return rep
}

// replayGrid re-executes every unit of a grid serially through the public
// calls harness.Run makes for it — ooo.New + Run per policy and
// baseline.RunTS — at the thresholds the grid chose. Each sweep total and
// each cell is one "replay.unit" span: the cell costs, the straggler and
// the campaign's overhead (its wall time against the summed unit cost over
// its workers) are measured against them. It returns the replayed cycle
// counts in the committed-baseline shape and the instructions it simulated.
func replayGrid(tr *tracer, r *result, bs []harness.Benchmark, cores []ooo.Config, chosen map[harness.Class]map[string]int, sweep bool) (*harness.Baseline, float64, error) {
	byClass := map[harness.Class][]harness.Benchmark{}
	for _, b := range bs {
		byClass[b.Class] = append(byClass[b.Class], b)
	}
	instrs := 0.0
	run := func(sp int, cfg ooo.Config, p *isa.Program) (*ooo.Result, error) {
		res, err := simulate(tr, -1, sp, cfg, p)
		if err == nil {
			instrs += float64(res.Instructions)
		}
		return res, err
	}
	redsocAt := func(cfg ooo.Config, th int) ooo.Config {
		rc := cfg.WithPolicy(ooo.PolicyRedsoc)
		rc.Redsoc.ThresholdTicks = th
		return rc
	}
	out := &harness.Baseline{Cells: map[string]harness.BaselineCell{}}
	for _, class := range harness.Classes() {
		for _, cfg := range cores {
			if sweep {
				for _, th := range harness.ThresholdCandidates {
					sp := tr.begin(-1, -1, "replay.unit")
					for _, b := range byClass[class] {
						if _, err := run(sp, cfg.WithPolicy(ooo.PolicyBaseline), b.Prog); err != nil {
							return nil, 0, err
						}
						if _, err := run(sp, redsocAt(cfg, th), b.Prog); err != nil {
							return nil, 0, err
						}
					}
					tr.end(sp, map[string]float64{"sweep": 1})
				}
			}
			for _, b := range byClass[class] {
				sp := tr.begin(-1, -1, "replay.unit")
				res := map[ooo.Policy]*ooo.Result{}
				for _, pol := range policies {
					cfgP := cfg.WithPolicy(pol)
					if pol == ooo.PolicyRedsoc {
						cfgP = redsocAt(cfg, chosen[class][cfg.Name])
					}
					rr, err := run(sp, cfgP, b.Prog)
					if err != nil {
						return nil, 0, err
					}
					res[pol] = rr
				}
				ts := tr.begin(-1, sp, "baseline.RunTS")
				tsr, err := baseline.RunTS(cfg, b.Prog)
				tr.end(ts, nil)
				if err != nil {
					return nil, 0, err
				}
				instrs += float64(len(b.Prog.Instrs))
				if tsr.PeriodPS < timing.ClockPS {
					instrs += float64(len(b.Prog.Instrs)) // the rescaled run
				}
				tr.end(sp, map[string]float64{"sweep": 0})
				base := res[ooo.PolicyBaseline]
				for _, pol := range policies[1:] {
					if !res[pol].ArchEqual(base) {
						r.fail("replay %s/%s: %s diverges architecturally from baseline", b.Name, cfg.Name, pol)
					}
					for addr, want := range b.WantMem {
						if got := res[pol].FinalMem[addr]; got != want {
							r.fail("replay %s/%s/%s: mem[%#x] = %#x, want %#x", b.Name, cfg.Name, pol, addr, got, want)
						}
					}
				}
				out.Cells[string(class)+"/"+b.Name+"/"+cfg.Name] = harness.BaselineCell{
					BaselineCycles:  base.Cycles,
					RedsocCycles:    res[ooo.PolicyRedsoc].Cycles,
					MOSCycles:       res[ooo.PolicyMOS].Cycles,
					LoadDelayCycles: res[ooo.PolicyLoadDelay].Cycles,
					SpecLSQCycles:   res[ooo.PolicySpecLSQ].Cycles,
					RecycledOps:     res[ooo.PolicyRedsoc].RecycledOps,
				}
			}
		}
	}
	return out, instrs, nil
}

// compareCells is the cycle-count gate: one operation per expected cell,
// failed when any of its pinned counts drifted or it is missing.
func compareCells(r *result, what string, want, got *harness.Baseline) {
	r.attempt(len(want.Cells))
	for key, w := range want.Cells {
		g, ok := got.Cells[key]
		switch {
		case !ok:
			r.fail("%s: cell %s missing", what, key)
		case g != w:
			r.fail("%s: cell %s = %+v, want %+v", what, key, g, w)
		}
	}
	if len(got.Cells) != len(want.Cells) {
		r.fail("%s: %d cells, want %d", what, len(got.Cells), len(want.Cells))
	}
}

// campaignPhases splits each campaign span (named name) by the
// "campaign.unit" marks recorded under it: the sweep phase runs from the
// campaign's start to its last sweep total, the cell phase from there to
// its last grid cell.
func campaignPhases(tr *tracer, name string) (campaign, sweepPhase, cellPhase []float64) {
	units := tr.named("campaign.unit")
	for _, c := range tr.named(name) {
		lastSweep, lastCell := c.Start, c.Start
		for _, u := range units {
			if u.Parent != c.Seq {
				continue
			}
			if u.Attrs["sweep"] == 1 {
				lastSweep = max(lastSweep, u.Start)
			} else {
				lastCell = max(lastCell, u.Start)
			}
		}
		campaign = append(campaign, c.Dur())
		sweepPhase = append(sweepPhase, (lastSweep-c.Start)/1e6)
		cellPhase = append(cellPhase, (lastCell-lastSweep)/1e6)
	}
	return campaign, sweepPhase, cellPhase
}

// layerMetrics derives every per-layer metric from the recorded spans. A
// layer the workload never calls reports 0. campaignSpan names the span
// that brackets the campaign (harness.Run for grid, the miss job's
// "running" to "done" interval for serve).
func (b *bench) layerMetrics(campaignSpan string) {
	tr := b.tr
	ms := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * 1e3
		}
		return out
	}

	builds := tr.durations("workload.build")
	b.set("workload.build_ms", median(ms(builds)), len(builds))
	decodes := tr.durations("trace.Decode")
	b.set("trace.decode_ns_per_instr", 1e9*ratio(sumOf(decodes), tr.sum("trace.Decode", "instrs")), len(decodes))

	news := tr.durations("ooo.New")
	b.set("ooo.new_us", 1e3*median(ms(news)), len(news))
	runs := tr.named("ooo.Run")
	runSecs := tr.durations("ooo.Run")
	sum := func(attr string) float64 { return tr.sum("ooo.Run", attr) }
	instrs, cycles := sum("instrs"), sum("cycles")
	var allocsPerRun []float64
	for _, s := range runs {
		allocsPerRun = append(allocsPerRun, s.Attrs["allocs"])
	}
	n := len(runs)
	b.set("ooo.run_ns_per_instr", 1e9*ratio(sumOf(runSecs), instrs), n)
	b.set("ooo.run_ns_per_cycle", 1e9*ratio(sumOf(runSecs), cycles), n)
	b.set("ooo.allocs_per_run", median(allocsPerRun), n)
	b.set("ooo.idle_cycle_frac", ratio(cycles-sum("issue_cycles"), cycles), n)
	b.set("ooo.ipc", ratio(instrs, cycles), n)
	b.set("ooo.recycled_per_kinstr", 1e3*ratio(sum("recycled"), instrs), n)
	b.set("ooo.gpw_useful_frac", ratio(sum("gpw_grants"), sum("gpw_grants")+sum("gpw_wasted")), n)
	b.set("ooo.lsq_misalloc_frac", ratio(sum("lsq_misallocs"), sum("lsq_forwards")+sum("lsq_misallocs")), n)
	b.set("mem.l1_miss_rate", ratio(sum("mem_accesses")-sum("mem_l1_hits"), sum("mem_accesses")), n)
	b.set("mem.dram_per_kinstr", 1e3*ratio(sum("mem_dram"), instrs), n)

	ts := tr.durations("baseline.RunTS")
	b.set("baseline.ts_ms", median(ms(ts)), len(ts))
	reports := tr.durations("harness.report")
	b.set("harness.report_ms", median(ms(reports)), len(reports))

	var cellCost, unitCost []float64
	for _, u := range tr.named("replay.unit") {
		unitCost = append(unitCost, u.Dur())
		if u.Attrs["sweep"] == 0 {
			cellCost = append(cellCost, u.Dur())
		}
	}
	b.set("harness.cell_cost_ms.p50", median(ms(cellCost)), len(cellCost))
	b.set("harness.cell_cost_ms.max", maxOf(ms(cellCost)), len(cellCost))
	b.set("campaign.straggler_s", maxOf(unitCost), len(unitCost))
	campaign, sweepPhase, cellPhase := campaignPhases(tr, campaignSpan)
	overhead := 0.0
	if len(unitCost) > 0 && len(campaign) > 0 {
		overhead = median(campaign) - sumOf(unitCost)/workers
	}
	b.set("campaign.overhead_s", overhead, len(campaign))
	b.set("campaign.sweep_phase_s", median(sweepPhase), len(sweepPhase))
	b.set("campaign.cell_phase_s", median(cellPhase), len(cellPhase))

	getUS := tr.durations("cellstore.Get")
	for i := range getUS {
		getUS[i] *= 1e6
	}
	b.set("cellstore.get_us.p50", median(getUS), len(getUS))
	b.set("cellstore.get_us.p90", quantile(getUS, 0.9), len(getUS))
	b.set("cellstore.value_kb", ratio(tr.sum("cellstore.Get", "bytes"), float64(len(getUS)))/1e3, len(getUS))
	puts := tr.durations("cellstore.Put")
	b.set("cellstore.put_us", 1e3*median(ms(puts)), len(puts))
	var hits, misses, corrupt []float64
	for _, s := range tr.named("serve.round.stats") {
		hits = append(hits, s.Attrs["hits"])
		misses = append(misses, s.Attrs["misses"])
		corrupt = append(corrupt, s.Attrs["corrupt"])
	}
	b.set("cellstore.hits", median(hits), len(hits))
	b.set("cellstore.misses", median(misses), len(misses))
	b.set("cellstore.corrupt", median(corrupt), len(corrupt))

	for _, m := range []struct{ metric, span string }{
		{"serve.submit_ms", "serve.submit"},
		{"serve.first_cell_ms", "serve.first_cell"},
		{"serve.report_fetch_ms", "serve.report_fetch"},
		{"serve.queue_wait_ms", "serve.queue_wait"},
	} {
		var xs []float64
		for _, s := range tr.named(m.span) {
			if s.Attrs["hit"] == 1 {
				xs = append(xs, s.Dur()*1e3)
			}
		}
		b.set(m.metric, median(xs), len(xs))
	}
}

// elapsed is the wall time since start in seconds.
func elapsed(start time.Time) float64 { return time.Since(start).Seconds() }
