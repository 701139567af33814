package harness

import "redsoc/internal/ooo"

// Report is the machine-readable record of one evaluation run — the payload
// redsoc-bench writes as BENCH_report.json to seed the performance
// trajectory across PRs. Everything under Cells, ClassMeans and Thresholds
// is a pure function of the grid and therefore bit-identical across worker
// counts; Workers and WallSeconds describe the run that produced it and are
// excluded from any equality check.
type Report struct {
	Scale   string `json:"scale"`
	Workers int    `json:"workers"`
	// WallSeconds is the wall-clock time of the grid evaluation (not
	// deterministic; filled in by the caller).
	WallSeconds float64           `json:"wall_seconds"`
	Cells       []CellReport      `json:"cells"`
	ClassMeans  []ClassMeanReport `json:"class_means"`
	Thresholds  []ThresholdReport `json:"chosen_thresholds"`
}

// CellReport is one benchmark × core comparison.
type CellReport struct {
	Class            string  `json:"class"`
	Benchmark        string  `json:"benchmark"`
	Core             string  `json:"core"`
	Threshold        int     `json:"threshold_ticks"`
	Instructions     int64   `json:"instructions"`
	BaselineCycles   int64   `json:"baseline_cycles"`
	RedsocCycles     int64   `json:"redsoc_cycles"`
	MOSCycles        int64   `json:"mos_cycles"`
	LoadDelayCycles  int64   `json:"loaddelay_cycles"`
	SpecLSQCycles    int64   `json:"speclsq_cycles"`
	RedsocSpeedup    float64 `json:"redsoc_speedup"`
	TSSpeedup        float64 `json:"ts_speedup"`
	MOSSpeedup       float64 `json:"mos_speedup"`
	LoadDelaySpeedup float64 `json:"loaddelay_speedup"`
	SpecLSQSpeedup   float64 `json:"speclsq_speedup"`
	RecycledOps      int64   `json:"recycled_ops"`
}

// ClassMeanReport is one Fig. 13 class × core mean.
type ClassMeanReport struct {
	Class              string  `json:"class"`
	Core               string  `json:"core"`
	RedsocMeanSpeedupP float64 `json:"redsoc_mean_speedup_pct"`
}

// ThresholdReport is one Sec. VI-C sweep decision.
type ThresholdReport struct {
	Class          string `json:"class"`
	Core           string `json:"core"`
	ThresholdTicks int    `json:"threshold_ticks"`
}

// Report flattens the grid into its machine-readable record. Cells keep the
// grid's class → core → benchmark order; class means and thresholds follow
// the paper's reporting order, so the whole structure marshals
// deterministically.
func (g *Grid) Report() *Report {
	r := &Report{}
	coreOrder := g.coreOrder()
	for _, c := range g.Cells {
		cmp := c.Cmp
		r.Cells = append(r.Cells, CellReport{
			Class:            string(c.Benchmark.Class),
			Benchmark:        c.Benchmark.Name,
			Core:             c.Core,
			Threshold:        c.Threshold,
			Instructions:     cmp.Runs[ooo.PolicyBaseline].Instructions,
			BaselineCycles:   cmp.Runs[ooo.PolicyBaseline].Cycles,
			RedsocCycles:     cmp.Runs[ooo.PolicyRedsoc].Cycles,
			MOSCycles:        cmp.Runs[ooo.PolicyMOS].Cycles,
			LoadDelayCycles:  cmp.Runs[ooo.PolicyLoadDelay].Cycles,
			SpecLSQCycles:    cmp.Runs[ooo.PolicySpecLSQ].Cycles,
			RedsocSpeedup:    cmp.Speedup(ooo.PolicyRedsoc),
			TSSpeedup:        cmp.TS.Speedup,
			MOSSpeedup:       cmp.Speedup(ooo.PolicyMOS),
			LoadDelaySpeedup: cmp.Speedup(ooo.PolicyLoadDelay),
			SpecLSQSpeedup:   cmp.Speedup(ooo.PolicySpecLSQ),
			RecycledOps:      cmp.Runs[ooo.PolicyRedsoc].RecycledOps,
		})
	}
	for _, class := range Classes() {
		for _, core := range coreOrder {
			if cells := g.CellsOf(class, core); len(cells) > 0 {
				r.ClassMeans = append(r.ClassMeans, ClassMeanReport{
					Class: string(class), Core: core,
					RedsocMeanSpeedupP: g.ClassMeanSpeedup(class, core),
				})
			}
			if th, ok := g.ChosenThreshold[class][core]; ok {
				r.Thresholds = append(r.Thresholds, ThresholdReport{
					Class: string(class), Core: core, ThresholdTicks: th,
				})
			}
		}
	}
	return r
}

// coreOrder lists the grid's cores in first-appearance order.
func (g *Grid) coreOrder() []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range g.Cells {
		if !seen[c.Core] {
			seen[c.Core] = true
			out = append(out, c.Core)
		}
	}
	return out
}
