// Command redsoc-sim runs one benchmark on one core under one scheduling
// policy and prints detailed metrics — the single-run tool for exploring
// the simulator.
//
// Usage:
//
//	redsoc-sim [-bench bitcnt] [-core big|medium|small]
//	           [-policy baseline|redsoc|mos|loaddelay|speclsq]
//	           [-threshold n] [-precision bits] [-compare]
//	           [-trace-out trace.json] [-trace-limit n] [-metrics-out metrics.json]
//
// -trace-out captures the run's sub-cycle pipeline events and writes a Chrome
// trace-event JSON file that loads directly in https://ui.perfetto.dev;
// -metrics-out writes a deterministic JSON snapshot of every scheduler
// counter and derived rate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"redsoc/internal/baseline"
	"redsoc/internal/harness"
	"redsoc/internal/obs"
	"redsoc/internal/ooo"
	"redsoc/internal/stats"
)

// writeTo streams fn's output to the named file, with "-" meaning stdout.
func writeTo(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("redsoc-sim: ")
	benchName := flag.String("bench", "bitcnt", "benchmark name (see -list)")
	coreName := flag.String("core", "big", "core: big, medium or small")
	policyName := flag.String("policy", "redsoc", "scheduler: "+strings.Join(ooo.PolicyNames(), ", "))
	threshold := flag.Int("threshold", -1, "ReDSOC slack threshold in ticks (-1 = default)")
	precision := flag.Int("precision", 0, "slack precision bits (0 = default 3)")
	compare := flag.Bool("compare", false, "run every scheduler and compare")
	list := flag.Bool("list", false, "list benchmarks and exit")
	jsonOut := flag.Bool("json", false, "emit the full result as JSON")
	faultRate := flag.Float64("fault-rate", 0, "per-op fault-injection rate for every fault class (0 = off)")
	faultSeed := flag.Int64("fault-seed", 1, "fault-injection PRNG seed")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event / Perfetto JSON trace to this file (- = stdout)")
	traceLimit := flag.Int("trace-limit", 0, "retain only the first N trace events (0 = unlimited)")
	metricsOut := flag.String("metrics-out", "", "write a deterministic metrics snapshot (JSON) to this file (- = stdout)")
	flag.Parse()

	benchmarks := append(harness.Benchmarks(harness.Full), harness.Extras()...)
	if *list {
		for _, b := range benchmarks {
			fmt.Printf("%-8s %s (%d instructions)\n", b.Class, b.Name, b.Prog.Len())
		}
		return
	}
	bench, err := harness.FindBenchmark(benchmarks, *benchName)
	if err != nil {
		log.Fatalf("%v (try -list)", err)
	}

	cfg, err := ooo.ParseCore(*coreName)
	if err != nil {
		log.Fatal(err)
	}
	if *precision > 0 {
		cfg.PrecisionBits = *precision
	}

	if *compare {
		cmp, err := baseline.Compare(context.Background(), cfg, bench.Prog, baseline.DefaultThreshold(cfg))
		if err != nil {
			log.Fatal(err)
		}
		t := stats.NewTable(fmt.Sprintf("%s on %s", bench.Name, cfg.Name),
			"scheduler", "cycles", "IPC", "speedup")
		for p := range ooo.NumPolicies {
			r, speedup := cmp.Runs[p], "1.00x"
			if p != ooo.PolicyBaseline {
				speedup = fmt.Sprintf("%.3fx", cmp.Speedup(p))
			}
			t.Row(p.String(), r.Cycles, r.IPC(), speedup)
			if p == ooo.PolicyRedsoc {
				t.Row("ts", cmp.TS.Cycles, "-", fmt.Sprintf("%.3fx (%.0f ps, err %.3f%%)",
					cmp.TS.Speedup, float64(cmp.TS.PeriodPS), 100*cmp.TS.ErrorRate))
			}
		}
		t.Render(os.Stdout)
		return
	}

	policy, err := ooo.ParsePolicy(strings.ToLower(*policyName))
	if err != nil {
		log.Fatal(err)
	}
	cfg = cfg.WithPolicy(policy)
	if policy == ooo.PolicyRedsoc && *threshold >= 0 {
		cfg.Redsoc.ThresholdTicks = *threshold
	}
	if *faultRate > 0 {
		cfg = cfg.WithFaults(*faultRate, *faultSeed)
	}
	sim, err := ooo.New(cfg, bench.Prog)
	if err != nil {
		log.Fatal(err)
	}
	var buf *obs.Buffer
	if *traceOut != "" {
		buf = &obs.Buffer{Limit: *traceLimit}
		sim.SetObserver(buf)
	}
	res, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}
	if buf != nil {
		meta := obs.Meta{
			Benchmark: bench.Name, Core: cfg.Name, Policy: cfg.Policy.String(),
			TicksPerCycle: sim.Clock().TicksPerCycle(),
		}
		if err := writeTo(*traceOut, func(w io.Writer) error {
			return obs.WritePerfetto(w, buf.Events(), meta)
		}); err != nil {
			log.Fatal(err)
		}
	}
	if *metricsOut != "" {
		m := res.Metrics(bench.Name)
		if err := writeTo(*metricsOut, func(w io.Writer) error {
			return obs.WriteJSON(w, m)
		}); err != nil {
			log.Fatal(err)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		e := exportOf(res)
		e.Benchmark = bench.Name
		if err := enc.Encode(e); err != nil {
			log.Fatal(err)
		}
		return
	}
	printResult(bench, res)
}

// export is the JSON-friendly view of a run (maps keyed by strings, no
// internal pointers).
type export struct {
	Benchmark      string
	Core           string
	Policy         string
	Cycles         int64
	Instructions   int64
	IPC            float64
	Mix            ooo.OpMix
	RecycledOps    int64
	TwoCycleHolds  int64
	SequenceEV     float64
	SequenceHist   map[int]uint64
	GPGrants       int64
	GPWasted       int64
	TagMispredict  float64
	WidthReplays   int64
	BranchMiss     float64
	FUStallRate    float64
	L1MissRate     float64
	FinalThreshold int

	TimingViolations  int64 `json:",omitempty"`
	ViolationReplays  int64 `json:",omitempty"`
	DegradationEvents int64 `json:",omitempty"`
	DegradedCycles    int64 `json:",omitempty"`
	FaultsInjected    int64 `json:",omitempty"`
}

func exportOf(r *ooo.Result) export {
	return export{
		Core:           r.Config.Name,
		Policy:         r.Config.Policy.String(),
		Cycles:         r.Cycles,
		Instructions:   r.Instructions,
		IPC:            r.IPC(),
		Mix:            r.Mix,
		RecycledOps:    r.RecycledOps,
		TwoCycleHolds:  r.TwoCycleHolds,
		SequenceEV:     r.Sequences.ExpectedLength(),
		SequenceHist:   r.Sequences.Histogram(),
		GPGrants:       r.GPWakeupGrants,
		GPWasted:       r.GPWakeupWasted,
		TagMispredict:  r.LastArrival.MispredictionRate(),
		WidthReplays:   r.WidthReplays,
		BranchMiss:     r.Branches.MispredictionRate(),
		FUStallRate:    r.FUStallRate(),
		L1MissRate:     r.MemStats.L1MissRate(),
		FinalThreshold: r.FinalThreshold,

		TimingViolations:  r.TimingViolations,
		ViolationReplays:  r.ViolationReplays,
		DegradationEvents: r.DegradationEvents,
		DegradedCycles:    r.DegradedCycles,
		FaultsInjected:    r.FaultStats.Total(),
	}
}

func printResult(b harness.Benchmark, res *ooo.Result) {
	fmt.Printf("%s (%s) on %s under %s\n", b.Name, b.Class, res.Config.Name, res.Config.Policy)
	fmt.Printf("  instructions     %d\n", res.Instructions)
	fmt.Printf("  cycles           %d\n", res.Cycles)
	fmt.Printf("  IPC              %.3f\n", res.IPC())
	m := res.Mix
	tot := float64(m.Total())
	fmt.Printf("  op mix           MEM-HL %s  MEM-LL %s  SIMD %s  multi %s  ALU-LS %s  ALU-HS %s\n",
		stats.Pct(float64(m.MemHL)/tot), stats.Pct(float64(m.MemLL)/tot),
		stats.Pct(float64(m.SIMD)/tot), stats.Pct(float64(m.OtherMulti)/tot),
		stats.Pct(float64(m.ALULS)/tot), stats.Pct(float64(m.ALUHS)/tot))
	fmt.Printf("  recycled ops     %d (%d held 2 cycles)\n", res.RecycledOps, res.TwoCycleHolds)
	fmt.Printf("  GP wakeups       %d useful, %d wasted\n", res.GPWakeupGrants, res.GPWakeupWasted)
	fmt.Printf("  transparent seqs %d (EV length %.2f)\n", res.Sequences.Count(), res.Sequences.ExpectedLength())
	fmt.Printf("  tag mispredicts  %d (rate %.3f%%)\n", res.TagMispredicts, 100*res.LastArrival.MispredictionRate())
	fmt.Printf("  width replays    %d (aggressive rate %.3f%%)\n", res.WidthReplays, 100*res.WidthPredictor.AggressiveRate())
	fmt.Printf("  branches         %d lookups, %.2f%% mispredicted\n",
		res.Branches.Lookups, 100*res.Branches.MispredictionRate())
	fmt.Printf("  FU stall rate    %s\n", stats.Pct(res.FUStallRate()))
	fmt.Printf("  L1 miss rate     %s\n", stats.Pct(res.MemStats.L1MissRate()))
	if res.FaultStats.Total() > 0 {
		fmt.Printf("  faults injected  %d (est %d, delay %d, latch %d, pred %d)\n",
			res.FaultStats.Total(), res.FaultStats.Estimate, res.FaultStats.Delay,
			res.FaultStats.Latch, res.FaultStats.Predictor)
		fmt.Printf("  violations       %d detected, %d replayed\n", res.TimingViolations, res.ViolationReplays)
		fmt.Printf("  degradation      %d trips, %d re-arms, %d cycles at baseline timing\n",
			res.DegradationEvents, res.DegradeRearms, res.DegradedCycles)
	}
}
