// Package chaos runs fault-injection campaigns: seeds × fault rates ×
// benchmarks under the ReDSOC scheduler, with every faulted run verified
// against its program's golden architectural state — the final state every
// fault-free run ends in (the Razor-style detect-and-replay recovery must
// be airtight). The campaign is executed on the shared concurrent engine —
// each cell's injector owns a task-local seeded RNG, so the report is
// bit-identical at any worker count — and aggregated in the benchmarks ×
// rates × seeds order a serial loop would use.
package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"redsoc/internal/campaign"
	"redsoc/internal/cellstore"
	"redsoc/internal/harness"
	"redsoc/internal/isa"
	"redsoc/internal/obs"
	"redsoc/internal/ooo"
	"redsoc/internal/stats"
)

// Options configures a campaign.
type Options struct {
	// Core is the simulated core configuration.
	Core ooo.Config
	// Seeds is the number of fault-injection seeds per (benchmark, rate)
	// cell; seed values run 1..Seeds.
	Seeds int
	// Rates are the per-op fault rates, reported in the given order.
	Rates []float64
	// Benchmarks are the campaign's workloads, reported in the given order.
	Benchmarks []harness.Benchmark
	// Workers bounds the campaign worker pool (0 = runtime.NumCPU). Any
	// worker count produces a bit-identical report.
	Workers int
	// Flight, when positive, re-runs each verification-failed cell with a
	// flight recorder retaining that many events and writes the recorder's
	// tail to FlightLog — the sub-cycle history leading into the mismatch.
	// The faulted run is deterministic in (benchmark, rate, seed), so the
	// re-run reproduces the failing schedule exactly — including for cells
	// served from the journal, which store only the compact outcome.
	Flight    int
	FlightLog io.Writer

	// Journal, if non-nil, records every faulted cell's outcome in the
	// content-addressed cell journal; with Resume also set, journaled cells
	// are served instead of re-simulated. Determinism makes the substitution
	// exact: a resumed report is bit-identical to an uninterrupted one.
	Journal *cellstore.Store
	Resume  bool

	// Shard restricts this process to its slice of the faulted cells
	// (Phase 2); the per-benchmark fault-free runs are replicated in every
	// shard. A sharded campaign requires Journal and returns no aggregate
	// table — its product is the journal, which a later full Resume run
	// merges back into the complete report by index.
	Shard campaign.Shard

	// OnCell, if non-nil, receives one harness.CellEvent per faulted cell
	// (Kind "chaos-cell") reporting journal hit vs. simulation. Events fire
	// from worker goroutines in completion order; OnCell must be safe for
	// concurrent use.
	OnCell func(harness.CellEvent)

	// CellTimeout bounds each cell exactly as in harness.Options.
	CellTimeout time.Duration
}

// plumbing projects the chaos options onto the harness options that the
// shared campaign functions in internal/harness read.
func (o Options) plumbing() harness.Options {
	return harness.Options{
		Workers: o.Workers, Journal: o.Journal, Resume: o.Resume, Shard: o.Shard, OnCell: o.OnCell,
		CellTimeout: o.CellTimeout,
	}
}

// chaosPayloadVersion versions the journaled outcome encoding; it is part of
// the cell fingerprint, so bumping it orphans old entries instead of
// misreading them. Version 2 came with the binary workload digest, which
// changed every key.
const chaosPayloadVersion = 2

// outcome is the compact journaled result of one faulted run: everything the
// Phase 3 aggregation consumes, and nothing else. Verification against the
// fault-free run happens inside the cell (ArchOK), so a journaled cell never
// needs the full ooo.Result again — the flight recorder re-runs failing
// cells deterministically when sub-cycle history is wanted.
type outcome struct {
	Version      int   `json:"version"`
	Faults       int64 `json:"faults"`
	Violations   int64 `json:"violations"`
	Replays      int64 `json:"replays"`
	Degradations int64 `json:"degradations"`
	Cycles       int64 `json:"cycles"`
	Instructions int64 `json:"instructions"`
	ArchOK       bool  `json:"arch_ok"`
}

// chaosKey fingerprints one faulted cell: the full core configuration, the
// workload, and the fault coordinates (rate, seed). The fault-free run it
// is verified against is a pure function of the same core + workload, so it
// needs no separate component.
func chaosKey(cfg ooo.Config, digest []byte, rate float64, seed int64) cellstore.Key {
	return cellstore.NewFingerprint("chaos-cell").
		Field("payload-version", chaosPayloadVersion).
		Field("core", cfg).
		Bytes("workload", digest).
		Field("rate", rate).
		Field("seed", seed).
		Key()
}

func decodeOutcome(data []byte) (outcome, error) {
	var o outcome
	if err := json.Unmarshal(data, &o); err != nil {
		return outcome{}, err
	}
	if o.Version != chaosPayloadVersion {
		return outcome{}, fmt.Errorf("chaos: journaled outcome version %d, want %d", o.Version, chaosPayloadVersion)
	}
	return o, nil
}

// Report is the outcome of a campaign.
type Report struct {
	// Table is the rendered per-(benchmark, rate) summary. Nil for a
	// sharded campaign, whose product is its journal, not an aggregate —
	// aggregating a shard's slice alone would misstate every cell.
	Table *stats.Table
	// ArchFailures counts faulted runs whose architectural state diverged
	// from the fault-free run's — any nonzero value means recovery is
	// broken. For a sharded campaign it covers only the shard's own cells.
	ArchFailures int
	// Shard is the shard that produced this report (zero when unsharded).
	Shard campaign.Shard
}

// RunCampaign executes the full campaign. ctx cancels in-flight cells; with
// a journal armed everything completed before the cancellation is already
// persisted, and a resumed campaign serves those cells instead of
// re-simulating them.
func RunCampaign(ctx context.Context, opts Options) (*Report, error) {
	if opts.Seeds < 1 {
		return nil, fmt.Errorf("chaos: seeds = %d, want >= 1", opts.Seeds)
	}
	if len(opts.Rates) == 0 {
		return nil, fmt.Errorf("chaos: no fault rates given")
	}
	if len(opts.Benchmarks) == 0 {
		return nil, fmt.Errorf("chaos: no benchmarks given")
	}
	d := opts.plumbing()
	if err := d.CheckShard("chaos"); err != nil {
		return nil, err
	}
	cfg := opts.Core
	var digests map[*isa.Program][]byte
	if opts.Journal != nil {
		digests = harness.WorkloadDigests(opts.Benchmarks)
	}

	// Phase 1: per benchmark, the fault-free baseline run. Its cycles give
	// each cell's speedup, and each faulted run's architectural state is
	// verified against its state, which ooo.Run guarantees is its program's
	// final state — the architectural interpreter's (ooo.FinalState) — as
	// it does for every fault-free run under any policy. Baselines are
	// cheap (one task per benchmark vs. benchmarks × rates × seeds faulted
	// cells) and every faulted cell needs them, so they are never journaled.
	bases, err := campaign.Run(ctx, len(opts.Benchmarks),
		harness.CampaignOptions[*ooo.Result](d, func(i int) string { return opts.Benchmarks[i].Name + "/baseline" }, nil),
		func(ctx context.Context, i int) (*ooo.Result, error) {
			return ooo.RunContext(ctx, cfg.WithPolicy(ooo.PolicyBaseline), opts.Benchmarks[i].Prog)
		})
	if err != nil {
		return nil, err
	}

	// Phase 2: every faulted run, flattened benchmark-major then rate then
	// seed — the aggregation order of the serial campaign loop. Each cell
	// verifies against its benchmark's baseline inside the task and returns the compact
	// outcome Phase 3 consumes, which is also what the journal stores.
	nr, ns := len(opts.Rates), opts.Seeds
	perBench := nr * ns
	// A sharded campaign computes only its owned slice of the flattened
	// (benchmark, rate, seed) space; the owned→cell index mapping keeps
	// cell identity (keys, labels) exactly what the unsharded run uses.
	owned := opts.Shard.Assign(len(opts.Benchmarks) * perBench)
	label := func(j int) string {
		b, rate, seed := split(opts, owned[j])
		return fmt.Sprintf("%s rate=%g seed=%d", opts.Benchmarks[b].Name, opts.Rates[rate], seed)
	}
	d.LogCampaign(len(owned), "chaos cells on "+cfg.Name)
	faulted, err := campaign.Run(ctx, len(owned),
		harness.CampaignOptions[outcome](d, label, nil),
		func(ctx context.Context, j int) (outcome, error) {
			bi, ri, seed := split(opts, owned[j])
			b, rate := opts.Benchmarks[bi], opts.Rates[ri]
			return harness.Step(d, harness.Unit[outcome]{
				Kind: "chaos-cell", Label: label(j),
				Key: func() cellstore.Key { return chaosKey(cfg, digests[b.Prog], rate, int64(seed)) },
				Run: func() (outcome, error) {
					r, err := ooo.RunContext(ctx, cfg.WithPolicy(ooo.PolicyRedsoc).WithFaults(rate, int64(seed)), b.Prog)
					if err != nil {
						return outcome{}, err
					}
					return outcome{
						Version:      chaosPayloadVersion,
						Faults:       r.FaultStats.Total(),
						Violations:   r.TimingViolations,
						Replays:      r.ViolationReplays,
						Degradations: r.DegradationEvents,
						Cycles:       r.Cycles,
						Instructions: r.Instructions,
						ArchOK:       r.ArchEqual(bases[bi]) && memOK(b, r),
					}, nil
				},
				Encode: func(o outcome) ([]byte, error) { return json.Marshal(o) },
				Decode: decodeOutcome,
			})
		})
	if err != nil {
		return nil, err
	}

	// A sharded campaign stops here: aggregating one shard's slice would
	// misstate every (benchmark, rate) cell, so its report carries only the
	// shard's own verification verdicts; the table comes from the merge run.
	if opts.Shard.Enabled() {
		failures := 0
		for _, o := range faulted {
			if !o.ArchOK {
				failures++
			}
		}
		return &Report{ArchFailures: failures, Shard: opts.Shard}, nil
	}

	// Phase 3: serial aggregation into the report table.
	t := stats.NewTable(
		fmt.Sprintf("fault campaign on %s (%d seeds per cell)", cfg.Name, opts.Seeds),
		"benchmark", "rate", "faults", "viol/kcyc", "replay ovh", "degr", "speedup", "arch")
	failures := 0
	for bi, b := range opts.Benchmarks {
		for ri, rate := range opts.Rates {
			cell := campaignCell{}
			for seed := 1; seed <= ns; seed++ {
				o := faulted[bi*perBench+ri*ns+(seed-1)]
				cell.add(o)
				if !o.ArchOK && opts.Flight > 0 && opts.FlightLog != nil {
					dumpFlight(opts, cfg, b, rate, int64(seed))
				}
			}
			failures += cell.archBad
			t.Row(b.Name, fmt.Sprintf("%.3f", rate), cell.faults,
				fmt.Sprintf("%.2f", cell.violPerKCycle()),
				stats.Pct(cell.replayOverhead()),
				cell.degradations,
				fmt.Sprintf("%.3fx", cell.meanSpeedup(bases[bi], ns)),
				cell.archLabel())
		}
	}
	return &Report{Table: t, ArchFailures: failures}, nil
}

// split maps a flattened task index back to (benchmark, rate, seed); seeds
// are 1-based to match the injector convention.
func split(opts Options, i int) (bench, rate, seed int) {
	perBench := len(opts.Rates) * opts.Seeds
	bench = i / perBench
	rem := i % perBench
	return bench, rem / opts.Seeds, rem%opts.Seeds + 1
}

// dumpFlight deterministically re-runs a verification-failed cell with a
// flight recorder attached and writes the recorder's tail to opts.FlightLog.
func dumpFlight(opts Options, cfg ooo.Config, b harness.Benchmark, rate float64, seed int64) {
	s, err := ooo.New(cfg.WithPolicy(ooo.PolicyRedsoc).WithFaults(rate, seed), b.Prog)
	if err != nil {
		fmt.Fprintf(opts.FlightLog, "chaos: flight re-run of %s rate=%g seed=%d failed: %v\n", b.Name, rate, seed, err)
		return
	}
	ring := s.AttachFlightRecorder(opts.Flight)
	if _, err := s.Run(); err != nil {
		fmt.Fprintf(opts.FlightLog, "chaos: flight re-run of %s rate=%g seed=%d failed: %v\n", b.Name, rate, seed, err)
		return
	}
	fmt.Fprintf(opts.FlightLog, "chaos: verification mismatch on %s rate=%g seed=%d; last %d events:\n",
		b.Name, rate, seed, ring.Len())
	io.WriteString(opts.FlightLog, obs.FormatStream(ring.Tail(opts.Flight), s.Clock().TicksPerCycle()))
}

// memOK checks the benchmark's reference values (when it carries any) against
// the faulted run's final memory.
func memOK(b harness.Benchmark, r *ooo.Result) bool {
	for addr, want := range b.WantMem { // order-independent: pass/fail over all entries
		if r.FinalMem[addr] != want {
			return false
		}
	}
	return true
}

// PickOnePerClass keeps the first benchmark of each suite — the CI smoke set.
func PickOnePerClass(bs []harness.Benchmark) []harness.Benchmark {
	var out []harness.Benchmark
	seen := map[harness.Class]bool{}
	for _, b := range bs {
		if !seen[b.Class] {
			seen[b.Class] = true
			out = append(out, b)
		}
	}
	return out
}

// campaignCell aggregates the seeds of one (benchmark, rate) cell.
type campaignCell struct {
	faults, violations, replays, degradations int64
	cycles, instructions                      int64
	archBad                                   int
}

func (c *campaignCell) add(o outcome) {
	c.faults += o.Faults
	c.violations += o.Violations
	c.replays += o.Replays
	c.degradations += o.Degradations
	c.cycles += o.Cycles
	c.instructions += o.Instructions
	if !o.ArchOK {
		c.archBad++
	}
}

func (c *campaignCell) violPerKCycle() float64 {
	if c.cycles == 0 {
		return 0
	}
	return 1000 * float64(c.violations) / float64(c.cycles)
}

// replayOverhead is the fraction of committed instructions that needed a
// violation replay — each replay costs one extra issue slot and a 2-cycle
// reissue delay, so this bounds the recovery tax.
func (c *campaignCell) replayOverhead() float64 {
	if c.instructions == 0 {
		return 0
	}
	return float64(c.replays) / float64(c.instructions)
}

// meanSpeedup is the residual speedup over the fault-free baseline core,
// averaged over the cell's seeds.
func (c *campaignCell) meanSpeedup(base *ooo.Result, seeds int) float64 {
	if c.cycles == 0 {
		return 0
	}
	return float64(base.Cycles) * float64(seeds) / float64(c.cycles)
}

func (c *campaignCell) archLabel() string {
	if c.archBad > 0 {
		return fmt.Sprintf("FAIL x%d", c.archBad)
	}
	return "ok"
}
