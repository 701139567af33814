package ooo

import "redsoc/internal/obs"

// Metrics flattens a run's Result into an obs.Metrics snapshot: every
// scheduler counter under stable snake_case keys, plus the derived rates the
// paper's evaluation leans on. The maps serialize with sorted keys, so two
// snapshots of identical runs are byte-identical.
func (r *Result) Metrics(benchmark string) obs.Metrics {
	c := map[string]int64{
		"cycles":                r.Cycles,
		"instructions":          r.Instructions,
		"recycled_ops":          r.RecycledOps,
		"two_cycle_holds":       r.TwoCycleHolds,
		"gp_wakeup_grants":      r.GPWakeupGrants,
		"gp_wakeup_wasted":      r.GPWakeupWasted,
		"tag_mispredicts":       r.TagMispredicts,
		"width_replays":         r.WidthReplays,
		"fused_ops":             r.FusedOps,
		"fu_stall_cycles":       r.FUStallCycles,
		"issue_cycles":          r.IssueCycles,
		"stall_redirect":        r.StallRedirect,
		"stall_rob":             r.StallROB,
		"stall_rse":             r.StallRSE,
		"stall_lsq":             r.StallLSQ,
		"threshold_adjustments": r.ThresholdAdjustments,
		"final_threshold":       int64(r.FinalThreshold),
		"pvt_recalibrations":    r.PVTRecalibrations,
		"timing_violations":     r.TimingViolations,
		"violation_replays":     r.ViolationReplays,
		"degradation_events":    r.DegradationEvents,
		"degrade_rearms":        r.DegradeRearms,
		"degraded_cycles":       r.DegradedCycles,
		"mix_mem_hl":            r.Mix.MemHL,
		"mix_mem_ll":            r.Mix.MemLL,
		"mix_simd":              r.Mix.SIMD,
		"mix_other_multi":       r.Mix.OtherMulti,
		"mix_alu_hs":            r.Mix.ALUHS,
		"mix_alu_ls":            r.Mix.ALULS,
		"faults_estimate":       r.FaultStats.Estimate,
		"faults_delay":          r.FaultStats.Delay,
		"faults_latch":          r.FaultStats.Latch,
		"faults_predictor":      r.FaultStats.Predictor,
		"branch_lookups":        int64(r.Branches.Lookups),
		"branch_mispredicts":    int64(r.Branches.Mispredictions),
		"la_lookups":            int64(r.LastArrival.Lookups),
		"la_mispredicts":        int64(r.LastArrival.Mispredictions),
		"width_lookups":         int64(r.WidthPredictor.Lookups),
		"width_exact":           int64(r.WidthPredictor.Exact),
		"width_conservative":    int64(r.WidthPredictor.Conservative),
		"width_aggressive":      int64(r.WidthPredictor.Aggressive),
		"mem_accesses":          int64(r.MemStats.Accesses),
		"mem_l1_hits":           int64(r.MemStats.L1Hits),
		"mem_l2_hits":           int64(r.MemStats.L2Hits),
		"mem_dram_accesses":     int64(r.MemStats.DRAMAccesses),
		"mem_prefetches":        int64(r.MemStats.Prefetches),
	}

	ops := r.Mix.Total()
	rates := map[string]float64{
		"ipc":                    r.IPC(),
		"recycled_op_fraction":   ratio(r.RecycledOps, ops),
		"two_cycle_hold_rate":    ratio(r.TwoCycleHolds, r.RecycledOps),
		"egpw_hit_rate":          ratio(r.GPWakeupGrants, r.GPWakeupGrants+r.GPWakeupWasted),
		"fused_op_fraction":      ratio(r.FusedOps, ops),
		"issue_cycle_fraction":   ratio(r.IssueCycles, r.Cycles),
		"degraded_cycle_frac":    ratio(r.DegradedCycles, r.Cycles),
		"violations_per_kilo":    1000 * ratio(r.TimingViolations, r.Instructions),
		"tag_mispredict_rate":    r.LastArrival.MispredictionRate(),
		"branch_mispredict_rate": r.Branches.MispredictionRate(),
		"width_exact_rate":       ratio(int64(r.WidthPredictor.Exact), int64(r.WidthPredictor.Lookups)),
		"l1_hit_rate":            ratio(int64(r.MemStats.L1Hits), int64(r.MemStats.Accesses)),
	}
	if m := policies[r.Config.Policy].metrics; m != nil {
		m(r, c, rates)
	}

	return obs.Metrics{
		Benchmark: benchmark,
		Core:      r.Config.Name,
		Policy:    r.Config.Policy.String(),
		Counters:  c,
		Rates:     rates,
	}
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
