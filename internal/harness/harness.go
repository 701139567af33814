// Package harness drives the paper's full evaluation: it builds the fifteen
// benchmarks (five SPEC-calibrated synthetics, five MiBench kernels, five
// Table II ML kernels), runs them across the three Table I cores under every
// scheduler (every ooo.Policy, plus TS), applies the per-application-class
// slack-threshold sweep of Sec. VI-C, and renders each of the paper's
// figures and tables as text (Fig. 1–3, Table I/II, Fig. 10–15, the
// precision sweep, the power conversion, and the overhead accounting).
package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"redsoc/internal/baseline"
	"redsoc/internal/campaign"
	"redsoc/internal/cellstore"
	"redsoc/internal/isa"
	"redsoc/internal/ooo"
	"redsoc/internal/workload/extra"
	"redsoc/internal/workload/mibench"
	"redsoc/internal/workload/ml"
	"redsoc/internal/workload/spec"
)

// Class labels a benchmark suite, matching the paper's three groups.
type Class string

const (
	ClassSPEC Class = "SPEC"
	ClassMiB  Class = "MiBench"
	ClassML   Class = "ML"
)

// Classes lists the three suites in the paper's reporting order.
func Classes() []Class { return []Class{ClassSPEC, ClassMiB, ClassML} }

// Benchmark is one workload plus its verification data.
type Benchmark struct {
	Class Class
	Name  string
	Prog  *isa.Program
	// WantMem maps result addresses to required final values (empty for the
	// synthetic traces, which are verified by cross-scheduler equivalence).
	WantMem map[uint64]uint64
}

// Scale selects evaluation sizes: Quick for tests/benches, Full for the
// redsoc-bench command.
type Scale int

const (
	Quick Scale = iota
	Full
)

// Benchmarks builds all fifteen workloads at the given scale.
func Benchmarks(s Scale) []Benchmark {
	specN := 20000
	if s == Quick {
		specN = 5000
	}
	var out []Benchmark
	for _, p := range spec.Suite(specN) {
		out = append(out, Benchmark{Class: ClassSPEC, Name: p.Name, Prog: p})
	}
	mib := mibench.Suite()
	if s == Quick {
		mib = []mibench.Kernel{
			{Name: "corners", Build: func() (*isa.Program, mibench.Expected) { return mibench.Corners(20, 16, 11) }},
			{Name: "strsearch", Build: func() (*isa.Program, mibench.Expected) { return mibench.StrSearch(800, 12) }},
			{Name: "gsm", Build: func() (*isa.Program, mibench.Expected) { return mibench.GSM(150, 13) }},
			{Name: "crc", Build: func() (*isa.Program, mibench.Expected) { return mibench.CRC(600, 14) }},
			{Name: "bitcnt", Build: func() (*isa.Program, mibench.Expected) { return mibench.Bitcount(450, 15) }},
		}
	}
	for _, k := range mib {
		p, exp := k.Build()
		out = append(out, Benchmark{Class: ClassMiB, Name: k.Name, Prog: p, WantMem: exp.Mem})
	}
	mlk := ml.Suite()
	if s == Quick {
		mlk = []ml.Kernel{
			{Name: "act", Build: func() (*isa.Program, ml.Expected) { return ml.Act(700, 21) }},
			{Name: "pool0", Build: func() (*isa.Program, ml.Expected) { return ml.Pool0(64, 32, 22) }},
			{Name: "conv", Build: func() (*isa.Program, ml.Expected) { return ml.Conv(48, 32, 23) }},
			{Name: "pool1", Build: func() (*isa.Program, ml.Expected) { return ml.Pool1(64, 32, 24) }},
			{Name: "softmax", Build: func() (*isa.Program, ml.Expected) { return ml.Softmax(250, 25) }},
		}
	}
	for _, k := range mlk {
		p, exp := k.Build()
		out = append(out, Benchmark{Class: ClassML, Name: k.Name, Prog: p, WantMem: exp.Mem})
	}
	return out
}

// ClassExtra labels the beyond-the-paper kernels (sha256, dijkstra, qsort);
// they are not part of the Fig. 13 grid but are available to the tools.
const ClassExtra Class = "Extra"

// Extras returns the beyond-the-paper kernels.
func Extras() []Benchmark {
	var out []Benchmark
	for _, k := range extra.Suite() {
		p, exp := k.Build()
		out = append(out, Benchmark{Class: ClassExtra, Name: k.Name, Prog: p, WantMem: exp.Mem})
	}
	return out
}

// FindBenchmark returns the benchmark with the given name. A missing name is
// an error, and so is a duplicated one: the tools used to scan with
// last-match-wins, which silently shadowed benchmarks when two suites reused
// a name.
func FindBenchmark(benchmarks []Benchmark, name string) (Benchmark, error) {
	var found Benchmark
	matches := 0
	for _, b := range benchmarks {
		if b.Name == name {
			found = b
			matches++
		}
	}
	switch matches {
	case 0:
		return Benchmark{}, fmt.Errorf("harness: unknown benchmark %q (available: %s)",
			name, strings.Join(BenchmarkNames(benchmarks), ", "))
	case 1:
		return found, nil
	default:
		return Benchmark{}, fmt.Errorf("harness: benchmark name %q is ambiguous: %d matches", name, matches)
	}
}

// BenchmarkNames returns the benchmarks' names, sorted and deduplicated —
// the stable listing error messages and tool usage text lean on.
func BenchmarkNames(benchmarks []Benchmark) []string {
	seen := map[string]bool{}
	var names []string
	for _, b := range benchmarks {
		if !seen[b.Name] {
			seen[b.Name] = true
			names = append(names, b.Name)
		}
	}
	sort.Strings(names)
	return names
}

// Cores returns the three Table I cores, Big first (the paper's ordering).
func Cores() []ooo.Config {
	return []ooo.Config{ooo.BigConfig(), ooo.MediumConfig(), ooo.SmallConfig()}
}

// Cell is the full comparison for one benchmark on one core, at the
// class-tuned slack threshold.
type Cell struct {
	Benchmark Benchmark
	Core      string
	Threshold int
	Cmp       *baseline.Comparison
}

// Grid holds the entire evaluation — or, for a sharded run, the slice of it
// this shard owns (Shard records which; a partial grid is journal fodder,
// not report material).
type Grid struct {
	Cells []Cell
	// ChosenThreshold[class][core] is the Sec. VI-C design-sweep result.
	ChosenThreshold map[Class]map[string]int
	// Shard is the shard that produced this grid (zero when unsharded).
	Shard campaign.Shard
}

// ThresholdCandidates is the Sec. VI-C design-sweep range.
var ThresholdCandidates = []int{4, 5, 6, 7}

// classCore is one (class, core) pair of the threshold-selection phase;
// core and classID are cfg's and class's canonical JSON for its journal
// keys, marshalled once per run (nil without a journal).
type classCore struct {
	class   Class
	cfg     ooo.Config
	core    []byte
	classID []byte
}

// cellTask is one Phase B grid cell: a benchmark on a core at the threshold
// the sweep chose for its class, and the engine configs its results run
// under (baseline.EngineConfigs), built once per (class, core) pair so
// a journal hit does not rebuild them.
type cellTask struct {
	classCore
	b       Benchmark
	th      int
	engines []ooo.Config
}

// Options tunes a grid run.
type Options struct {
	// SweepThreshold enables the per-class × per-core threshold sweep; when
	// false the default (6/8 cycle) is used everywhere.
	SweepThreshold bool
	// Progress, if non-nil, receives one line per completed cell, always in
	// grid order regardless of the worker count.
	Progress func(string)
	// Workers bounds the campaign worker pool (0 = runtime.NumCPU). Every
	// cell simulation is independent and results are merged by task index,
	// so any worker count produces a bit-identical grid.
	Workers int

	// Journal, if non-nil, records every completed cell and sweep total in
	// the content-addressed cell journal as the grid runs; with Resume also
	// set, previously journaled work is served instead of re-simulated.
	// Determinism makes the substitution exact: a resumed grid is
	// bit-identical to an uninterrupted one.
	Journal *cellstore.Store
	// Resume serves journal hits. Without it the journal is write-only (a
	// fresh run that leaves a resumable trail behind).
	Resume bool

	// Shard restricts this process to its slice of the grid: only Phase B
	// cells the shard owns are simulated and journaled. The Sec. VI-C
	// threshold sweep is replicated in every shard — it is deterministic, so
	// every shard chooses identical thresholds, and with a shared journal
	// plus Resume most replicas are served from cache rather than re-run. A
	// sharded run requires Journal: its product is the journal (merged by a
	// later Resume run that reassembles the full grid by index), not the
	// partial grid it returns.
	Shard campaign.Shard

	// OnCell, if non-nil, receives one event per journal-keyed unit of work
	// (sweep total or grid cell) as it completes, reporting whether it was
	// served from the journal or simulated. Events fire from campaign worker
	// goroutines in completion order — OnCell must be safe for concurrent
	// use, and the order is operational telemetry, never part of a result.
	OnCell func(CellEvent)

	// CellTimeout bounds each cell attempt; Retries grants extra attempts
	// to cells that panicked or timed out (genuine simulation errors never
	// retry). Retried cells produce identical bytes — see campaign.Options.
	CellTimeout time.Duration
	Retries     int
	// StallAfter arms the hung-cell watchdog when OnStall is set: a cell
	// silent for longer than this is reported with its label and last
	// observed event. Zero with OnStall set defaults to one minute.
	StallAfter time.Duration
	OnStall    func(campaign.Stall)
	// Stats, if non-nil, receives the campaign resilience counters.
	Stats *campaign.Stats
}

// Run executes the grid. The Sec. VI-C threshold sweep and the grid cells
// each run as a concurrent campaign: cells are simulated in parallel but
// appended to the grid — and reported through Progress — in the same
// class → core → benchmark order the serial evaluation used. ctx cancels
// in-flight scheduling (SIGINT in the CLIs lands here); with a journal
// armed, everything completed before the cancellation is already persisted
// and a -resume run picks up exactly where this one stopped. Both phases
// take their simulations from one run cache, so each distinct engine run
// happens once per call; journaled cells of one program share one decoded
// architectural state, this call's and every other's (see archCache).
func Run(ctx context.Context, benchmarks []Benchmark, cores []ooo.Config, opts Options) (*Grid, error) {
	return runGrid(ctx, benchmarks, cores, opts, &runCache{})
}

// runGrid is Run with every simulation taken from runs.
func runGrid(ctx context.Context, benchmarks []Benchmark, cores []ooo.Config, opts Options, runs *runCache) (*Grid, error) {
	run := baseline.Runner(runs.run)
	if err := opts.CheckShard("harness"); err != nil {
		return nil, err
	}
	g := &Grid{ChosenThreshold: map[Class]map[string]int{}, Shard: opts.Shard}
	byClass := map[Class][]Benchmark{}
	for _, b := range benchmarks {
		byClass[b.Class] = append(byClass[b.Class], b)
	}
	var digests map[*isa.Program][]byte
	coreIDs := make([][]byte, len(cores))
	if opts.Journal != nil {
		digests = WorkloadDigests(benchmarks)
		for i, cfg := range cores {
			var err error
			if coreIDs[i], err = json.Marshal(cfg); err != nil {
				return nil, fmt.Errorf("harness: core %s does not marshal: %w", cfg.Name, err)
			}
		}
	}

	// Phase A: one threshold per (class, core), from the Sec. VI-C sweep.
	var pairs []classCore
	for _, class := range Classes() {
		if len(byClass[class]) == 0 {
			continue
		}
		g.ChosenThreshold[class] = map[string]int{}
		var classID []byte
		if opts.Journal != nil {
			classID, _ = json.Marshal(class) // a string always marshals
		}
		for i, cfg := range cores {
			pairs = append(pairs, classCore{class, cfg, coreIDs[i], classID})
		}
	}
	thresholds, err := chooseThresholds(ctx, pairs, byClass, digests, opts, run)
	if err != nil {
		return nil, err
	}
	for i, pr := range pairs {
		g.ChosenThreshold[pr.class][pr.cfg.Name] = thresholds[i]
	}

	// Phase B: the grid cells, flattened in reporting order.
	var tasks []cellTask
	for i, pr := range pairs {
		engines := baseline.EngineConfigs(pr.cfg, thresholds[i])
		for _, b := range byClass[pr.class] {
			tasks = append(tasks, cellTask{pr, b, thresholds[i], engines})
		}
	}
	// A sharded run computes only its owned slice of the task list; the
	// owned→task index mapping keeps cell identity (keys, labels, journal
	// records) exactly what the unsharded run would use.
	owned := opts.Shard.Assign(len(tasks))
	opts.LogCampaign(len(owned), "grid cells")
	label := func(j int) string { t := tasks[owned[j]]; return t.b.Name + "/" + t.cfg.Name }
	cells, err := campaign.Run(ctx, len(owned),
		CampaignOptions(opts, label, func(j int, c Cell) {
			if opts.Progress != nil {
				t := tasks[owned[j]]
				opts.Progress(fmt.Sprintf("%-8s %-10s %-7s redsoc %+5.1f%%  ts %+5.1f%%  mos %+5.1f%%  loaddelay %+5.1f%%  speclsq %+5.1f%%",
					t.class, t.b.Name, t.cfg.Name,
					100*(c.Cmp.Speedup(ooo.PolicyRedsoc)-1), 100*(c.Cmp.TS.Speedup-1), 100*(c.Cmp.Speedup(ooo.PolicyMOS)-1),
					100*(c.Cmp.Speedup(ooo.PolicyLoadDelay)-1), 100*(c.Cmp.Speedup(ooo.PolicySpecLSQ)-1)))
			}
		}),
		func(ctx context.Context, j int) (Cell, error) {
			t := tasks[owned[j]]
			return Step(ctx, opts, Unit[Cell]{
				Kind: "grid-cell", Label: label(j),
				Key: func() cellstore.Key { return cellKey(t.core, digests[t.b.Prog], t.th) },
				Run: func() (Cell, error) {
					cmp, err := run.Compare(ctx, t.cfg, t.b.Prog, t.th)
					if err != nil {
						return Cell{}, fmt.Errorf("harness: %s on %s: %w", t.b.Name, t.cfg.Name, err)
					}
					if err := verify(t.b, cmp); err != nil {
						return Cell{}, err
					}
					return Cell{Benchmark: t.b, Core: t.cfg.Name, Threshold: t.th, Cmp: cmp}, nil
				},
				Encode: func(c Cell) ([]byte, error) { return encodeCell(c, t.cfg) },
				Decode: func(d []byte) (Cell, error) { return decodeCell(d, t) },
			})
		})
	if err != nil {
		return nil, err
	}
	g.Cells = cells
	return g, nil
}

// chooseThresholds runs the Sec. VI-C design sweep for every (class, core)
// pair: pick the slack threshold that maximizes the class's summed speedup
// on that core. The (pair, candidate) grid is flattened into one campaign
// ordered candidate-major — unit i is pair i%np at candidate i/np — so
// workers running side by side take different pairs, not two thresholds of
// one pair that would both wait on the same baseline runs in the run cache.
// The reduction walks candidates in declared order with a strict >, so ties
// resolve to the earliest candidate exactly as the serial sweep did.
func chooseThresholds(ctx context.Context, pairs []classCore, byClass map[Class][]Benchmark, digests map[*isa.Program][]byte, opts Options, run baseline.Runner) ([]int, error) {
	out := make([]int, len(pairs))
	if !opts.SweepThreshold {
		for i, pr := range pairs {
			out[i] = baseline.DefaultThreshold(pr.cfg)
		}
		return out, nil
	}
	np, nc := len(pairs), len(ThresholdCandidates)
	if opts.Journal != nil {
		_ = opts.Journal.LogCampaign(np*nc, "threshold sweep")
	}
	label := func(i int) string {
		pr := pairs[i%np]
		return fmt.Sprintf("sweep %s/%s th=%d", pr.class, pr.cfg.Name, ThresholdCandidates[i/np])
	}
	totals, err := campaign.Run(ctx, np*nc,
		CampaignOptions[float64](opts, label, nil),
		func(ctx context.Context, i int) (float64, error) {
			pr, th := pairs[i%np], ThresholdCandidates[i/np]
			class := byClass[pr.class]
			return Step(ctx, opts, Unit[float64]{
				Kind: "sweep-total", Label: label(i),
				Key: func() cellstore.Key {
					ds := make([][]byte, len(class))
					for j, b := range class {
						ds[j] = digests[b.Prog]
					}
					return sweepKey(pr.core, pr.classID, ds, th)
				},
				Run: func() (float64, error) {
					total := 0.0
					for _, b := range class {
						campaign.Heartbeat(ctx, fmt.Sprintf("%s: simulating %s", label(i), b.Name))
						base, err := run(pr.cfg.WithPolicy(ooo.PolicyBaseline), b.Prog)
						if err != nil {
							return 0, err
						}
						rc := pr.cfg.WithPolicy(ooo.PolicyRedsoc)
						rc.Redsoc.ThresholdTicks = th
						red, err := run(rc, b.Prog)
						if err != nil {
							return 0, err
						}
						total += red.SpeedupOver(base)
					}
					return total, nil
				},
				Encode: encodeTotal,
				Decode: decodeTotal,
			})
		})
	if err != nil {
		return nil, err
	}
	for p := range pairs {
		best, bestGain := ThresholdCandidates[0], -1.0
		for c, th := range ThresholdCandidates {
			if total := totals[c*np+p]; total > bestGain {
				best, bestGain = th, total
			}
		}
		out[p] = best
	}
	return out, nil
}

// verify checks a kernel's reference results on every scheduler's final
// memory.
func verify(b Benchmark, cmp *baseline.Comparison) error {
	for addr, want := range b.WantMem {
		for _, res := range cmp.Runs {
			if got := res.FinalMem[addr]; got != want {
				return fmt.Errorf("harness: %s/%s/%s mem[%#x] = %#x, want %#x",
					b.Name, cmp.Core, res.Config.Policy, addr, got, want)
			}
		}
	}
	return nil
}

// CellsOf filters the grid by class and/or core ("" = all).
func (g *Grid) CellsOf(class Class, core string) []Cell {
	var out []Cell
	for _, c := range g.Cells {
		if (class == "" || c.Benchmark.Class == class) && (core == "" || c.Core == core) {
			out = append(out, c)
		}
	}
	return out
}

// ClassMeanSpeedup returns the arithmetic-mean ReDSOC speedup (in percent
// over baseline) for a class × core, as Fig. 13 reports.
func (g *Grid) ClassMeanSpeedup(class Class, core string) float64 {
	cells := g.CellsOf(class, core)
	if len(cells) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range cells {
		sum += 100 * (c.Cmp.Speedup(ooo.PolicyRedsoc) - 1)
	}
	return sum / float64(len(cells))
}
