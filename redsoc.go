// Package redsoc is the public API of the ReDSOC reproduction — the slack-
// recycling out-of-order core of "Recycling Data Slack in Out-of-Order
// Cores" (Ravi & Lipasti, HPCA 2019) together with the cores, workloads and
// comparison schedulers of its evaluation.
//
// Quick start:
//
//	prog := redsoc.NewProgram("demo")
//	prog.MovImm(1, 0x55)
//	for i := 0; i < 100; i++ {
//		prog.Xor(1, 1, 1) // a dependent chain of high-slack logic ops
//	}
//	m, _ := redsoc.Run(redsoc.Config{Core: redsoc.Big, Scheduler: redsoc.ReDSOC}, prog)
//	fmt.Println(m.IPC())
//
// The named paper benchmarks are available through Benchmarks and
// RunBenchmark; CompareSchedulers runs baseline, ReDSOC, timing speculation,
// operation fusion and the two dynamic-delay schedulers (load-delay
// tracking, speculative LSQ) side by side.
package redsoc

import (
	"context"
	"fmt"

	"redsoc/internal/baseline"
	"redsoc/internal/harness"
	"redsoc/internal/ooo"
	"redsoc/internal/timing"
)

// CoreSize selects one of the Table I cores.
type CoreSize int

const (
	// Small is the 3-wide core (40/16/32 ROB/LSQ/RSE, 3/2/2 FUs).
	Small CoreSize = iota
	// Medium is the 4-wide core (80/32/64, 4/3/3).
	Medium
	// Big is the 8-wide core (160/64/128, 6/4/4).
	Big
)

// String names the core.
func (c CoreSize) String() string {
	switch c {
	case Small:
		return "Small"
	case Medium:
		return "Medium"
	}
	return "Big"
}

func (c CoreSize) config() ooo.Config {
	switch c {
	case Small:
		return ooo.SmallConfig()
	case Medium:
		return ooo.MediumConfig()
	}
	return ooo.BigConfig()
}

// Scheduler selects the instruction-scheduling mechanism.
type Scheduler int

const (
	// Baseline is the conventional timing-conservative scheduler.
	Baseline Scheduler = iota
	// ReDSOC enables slack recycling (the paper's mechanism).
	ReDSOC
	// OperationFusion is the MOS comparator (two ops per cycle when they fit).
	OperationFusion
	// LoadDelayTracking schedules loads by the delay last observed at each
	// PC (real-time tracking), with Razor-style consumer replay on
	// under-tracked delays.
	LoadDelayTracking
	// SpeculativeLSQ allocates LSQ entries speculatively so forwardable
	// loads read the store queue at LSQ latency, squashing misallocations.
	SpeculativeLSQ
)

// String names the scheduler.
func (s Scheduler) String() string {
	switch s {
	case ReDSOC:
		return "redsoc"
	case OperationFusion:
		return "mos"
	case LoadDelayTracking:
		return "loaddelay"
	case SpeculativeLSQ:
		return "speclsq"
	}
	return "baseline"
}

// Config selects a core, a scheduler and the optional ReDSOC knobs.
type Config struct {
	Core      CoreSize
	Scheduler Scheduler
	// PrecisionBits is the slack-tracking precision (0 = the paper's 3 bits).
	PrecisionBits int
	// SlackThreshold is the recycle threshold in ticks (0 = the default 3/4
	// of a cycle). Only meaningful under ReDSOC.
	SlackThreshold int
	// DisableEGPW and DisableSkewedSelect switch off the scheduler
	// optimizations for ablation studies.
	DisableEGPW         bool
	DisableSkewedSelect bool
	// DynamicThreshold enables the adaptive threshold controller (the
	// paper's Sec. IV-C future-work mechanism).
	DynamicThreshold bool
	// PVT enables the CPM guard-band model of Sec. V: the slack LUT is
	// recalibrated on the fly under nominal (non-worst-case) conditions.
	PVT bool
}

func (c Config) ooo() ooo.Config {
	cfg := c.Core.config()
	if c.PrecisionBits > 0 {
		cfg.PrecisionBits = c.PrecisionBits
	}
	switch c.Scheduler {
	case ReDSOC:
		cfg = cfg.WithPolicy(ooo.PolicyRedsoc)
		if c.SlackThreshold > 0 {
			cfg.Redsoc.ThresholdTicks = c.SlackThreshold
		}
		if c.DisableEGPW {
			cfg.Redsoc.EGPW = false
		}
		if c.DisableSkewedSelect {
			cfg.Redsoc.SkewedSelect = false
		}
		cfg.Redsoc.DynamicThreshold = c.DynamicThreshold
	case OperationFusion:
		cfg = cfg.WithPolicy(ooo.PolicyMOS)
	case LoadDelayTracking:
		cfg = cfg.WithPolicy(ooo.PolicyLoadDelay)
	case SpeculativeLSQ:
		cfg = cfg.WithPolicy(ooo.PolicySpecLSQ)
	default:
		cfg = cfg.WithPolicy(ooo.PolicyBaseline)
	}
	if c.PVT {
		cfg.PVT = timing.PVTConfig{Enable: true}
	}
	return cfg
}

// Metrics is the outcome of one run.
type Metrics struct {
	Cycles       int64
	Instructions int64
	// RecycledOps counts operations that began evaluating mid-cycle off the
	// transparent bypass; TwoCycleHolds of them held their FU two cycles.
	RecycledOps, TwoCycleHolds int64
	// SequenceEV is the expected transparent-sequence length (Fig. 11).
	SequenceEV float64
	// TagMispredictRate and BranchMispredictRate report the last-arrival
	// and branch predictors.
	TagMispredictRate, BranchMispredictRate float64
	// FUStallRate is the Fig. 14 metric.
	FUStallRate float64
	// L1MissRate is the fraction of memory accesses missing the L1.
	L1MissRate float64
}

// IPC returns committed instructions per cycle.
func (m *Metrics) IPC() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Instructions) / float64(m.Cycles)
}

func metricsOf(r *ooo.Result) *Metrics {
	return &Metrics{
		Cycles:               r.Cycles,
		Instructions:         r.Instructions,
		RecycledOps:          r.RecycledOps,
		TwoCycleHolds:        r.TwoCycleHolds,
		SequenceEV:           r.Sequences.ExpectedLength(),
		TagMispredictRate:    r.LastArrival.MispredictionRate(),
		BranchMispredictRate: r.Branches.MispredictionRate(),
		FUStallRate:          r.FUStallRate(),
		L1MissRate:           r.MemStats.L1MissRate(),
	}
}

// Run simulates a program under the configuration.
func Run(cfg Config, p *Program) (*Metrics, error) {
	res, err := ooo.Run(cfg.ooo(), p.build())
	if err != nil {
		return nil, err
	}
	return metricsOf(res), nil
}

// Comparison holds the six schedulers' results for one program on one core.
type Comparison struct {
	Baseline, ReDSOC, OperationFusion *Metrics
	// LoadDelay and SpecLSQ are the dynamic-delay schedulers: real-time
	// per-PC load-delay tracking and speculative LSQ-entry allocation.
	LoadDelay, SpecLSQ *Metrics
	// TimingSpeculationSpeedup is the Razor-style comparator's wall-clock
	// speedup (it overclocks rather than rescheduling, so it has no Metrics).
	TimingSpeculationSpeedup float64
	// TimingSpeculationPeriodPS is the chosen overclocked period.
	TimingSpeculationPeriodPS int
}

// ReDSOCSpeedup returns the ReDSOC speedup over baseline.
func (c *Comparison) ReDSOCSpeedup() float64 {
	return float64(c.Baseline.Cycles) / float64(c.ReDSOC.Cycles)
}

// FusionSpeedup returns the MOS speedup over baseline.
func (c *Comparison) FusionSpeedup() float64 {
	return float64(c.Baseline.Cycles) / float64(c.OperationFusion.Cycles)
}

// LoadDelaySpeedup returns the load-delay tracker's speedup over baseline.
func (c *Comparison) LoadDelaySpeedup() float64 {
	return float64(c.Baseline.Cycles) / float64(c.LoadDelay.Cycles)
}

// SpecLSQSpeedup returns the speculative-LSQ speedup over baseline.
func (c *Comparison) SpecLSQSpeedup() float64 {
	return float64(c.Baseline.Cycles) / float64(c.SpecLSQ.Cycles)
}

// CompareSchedulers runs baseline, ReDSOC, MOS, loaddelay, speclsq and TS
// on one core.
func CompareSchedulers(core CoreSize, p *Program) (*Comparison, error) {
	cfg := core.config()
	cmp, err := baseline.Compare(context.Background(), cfg, p.build(), baseline.DefaultThreshold(cfg))
	if err != nil {
		return nil, err
	}
	return &Comparison{
		Baseline:                  metricsOf(cmp.Baseline),
		ReDSOC:                    metricsOf(cmp.Redsoc),
		OperationFusion:           metricsOf(cmp.MOS),
		LoadDelay:                 metricsOf(cmp.LoadDelay),
		SpecLSQ:                   metricsOf(cmp.SpecLSQ),
		TimingSpeculationSpeedup:  cmp.TS.Speedup,
		TimingSpeculationPeriodPS: cmp.TS.PeriodPS,
	}, nil
}

// Benchmark identifies one of the paper's workloads.
type Benchmark struct {
	Suite string // "SPEC", "MiBench" or "ML"
	Name  string
	prog  *Program
}

// Program returns the benchmark's dynamic instruction stream.
func (b Benchmark) Program() *Program { return b.prog }

// Benchmarks returns the fifteen evaluation workloads at full size.
func Benchmarks() []Benchmark {
	var out []Benchmark
	for _, b := range harness.Benchmarks(harness.Full) {
		out = append(out, Benchmark{
			Suite: string(b.Class),
			Name:  b.Name,
			prog:  &Program{built: b.Prog},
		})
	}
	return out
}

// ExtraBenchmarks returns the beyond-the-paper kernels (sha256, dijkstra,
// qsort) — different slack profiles for exploration.
func ExtraBenchmarks() []Benchmark {
	var out []Benchmark
	for _, b := range harness.Extras() {
		out = append(out, Benchmark{
			Suite: string(b.Class),
			Name:  b.Name,
			prog:  &Program{built: b.Prog},
		})
	}
	return out
}

// RunBenchmark runs a named benchmark (paper suite or extras).
func RunBenchmark(cfg Config, name string) (*Metrics, error) {
	for _, b := range append(Benchmarks(), ExtraBenchmarks()...) {
		if b.Name == name {
			return Run(cfg, b.prog)
		}
	}
	return nil, fmt.Errorf("redsoc: unknown benchmark %q", name)
}
