// Command redsoc-chaos runs fault-injection campaigns: it sweeps seeds ×
// fault rates × benchmarks under the ReDSOC scheduler, verifies that every
// faulted run's architectural state matches its program's golden final
// state, which every fault-free run ends in (the Razor-style
// detect-and-replay recovery must be airtight), and reports violation
// rates, replay overhead, degradation activity and the residual speedup
// over the baseline core. The campaign runs on the shared concurrent
// engine: -j sets the worker count, and any worker count produces a
// bit-identical report.
//
// Usage:
//
//	redsoc-chaos [-core medium] [-seeds 3] [-rates 0.001,0.01,0.1]
//	             [-bench NAME] [-quick] [-j N] [-flight N]
//	             [-journal DIR] [-resume] [-shard i/n]
//	             [-cell-timeout D]
//
// -quick is the CI smoke configuration: one benchmark per suite,
// 3 seeds × 2 fault rates. When a faulted run fails verification, -flight
// re-runs the cell with a flight recorder attached and dumps its last N
// sub-cycle pipeline events to stderr; when a cell panics, the dump carries
// the panic's task-frame stack. -journal DIR arms the crash-safe campaign
// journal (SIGINT keeps completed cells; -resume serves them back), and
// -cell-timeout stops a cell that overruns it, naming the cell and where
// its simulation stopped. -h lists the available benchmark names, sorted.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"redsoc/cmd/internal/campaigncli"
	"redsoc/internal/campaign"
	"redsoc/internal/chaos"
	"redsoc/internal/harness"
	"redsoc/internal/ooo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("redsoc-chaos: ")
	coreName := flag.String("core", "medium", "core: big, medium or small")
	seeds := flag.Int("seeds", 3, "fault-injection seeds per (benchmark, rate) cell")
	ratesStr := flag.String("rates", "0.001,0.01,0.1", "comma-separated per-op fault rates")
	benchName := flag.String("bench", "", "restrict the campaign to one benchmark")
	quick := flag.Bool("quick", false, "CI smoke: one benchmark per suite, 3 seeds x 2 rates")
	workers := flag.Int("j", 0, "campaign workers (0 = all CPUs); results are identical at any -j")
	flight := flag.Int("flight", 64, "flight-recorder depth: dump the last N pipeline events of any verification-failed cell (0 = off)")
	cf := campaigncli.Register("campaign")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintln(out, "usage: redsoc-chaos [flags]")
		flag.PrintDefaults()
		names := harness.BenchmarkNames(append(harness.Benchmarks(harness.Quick), harness.Extras()...))
		fmt.Fprintf(out, "\navailable benchmarks: %s\n", strings.Join(names, ", "))
	}
	flag.Parse()

	cfg, err := ooo.ParseCore(*coreName)
	if err != nil {
		log.Fatal(err)
	}

	rates, err := parseRates(*ratesStr)
	if err != nil {
		log.Fatal(err)
	}
	benchmarks := harness.Benchmarks(harness.Quick)
	if *quick {
		benchmarks = chaos.PickOnePerClass(benchmarks)
		rates = []float64{0.01, 0.1}
		*seeds = 3
	}
	if *benchName != "" {
		b, err := harness.FindBenchmark(append(benchmarks, harness.Extras()...), *benchName)
		if err != nil {
			log.Fatal(err)
		}
		benchmarks = []harness.Benchmark{b}
	}

	cf.Open()
	defer cf.Close()
	c := cf.Options()
	opts := chaos.Options{
		Core:        cfg,
		Seeds:       *seeds,
		Rates:       rates,
		Benchmarks:  benchmarks,
		Workers:     *workers,
		Flight:      *flight,
		FlightLog:   os.Stderr,
		Journal:     c.Journal,
		Resume:      c.Resume,
		Shard:       c.Shard,
		CellTimeout: c.CellTimeout,
	}
	ctx, stopSignals := campaigncli.Context()
	defer stopSignals()

	report, err := chaos.RunCampaign(ctx, opts)
	if err != nil {
		// A panicking cell carries its task-frame stack; surface it next to
		// the flight dumps so the operator sees where the cell died.
		var pe *campaign.PanicError
		if errors.As(err, &pe) && *flight > 0 {
			fmt.Fprintf(os.Stderr, "chaos: cell panicked; task frames:\n%s\n", pe.TaskStack())
		}
		cf.Fail(err)
	}
	cf.Done()
	if cf.Shard.Enabled() {
		// A shard's product is its journal: verification and aggregation over
		// the full campaign happen in the merge run, which serves every cell
		// from the shared journal.
		if report.ArchFailures > 0 {
			log.Fatalf("%d faulted runs diverged architecturally — recovery is broken", report.ArchFailures)
		}
		fmt.Printf("shard %s complete — merge with: redsoc-chaos -journal %s -resume\n", cf.Shard, cf.Dir)
		return
	}
	report.Table.Render(os.Stdout)
	if report.ArchFailures > 0 {
		log.Fatalf("%d faulted runs diverged architecturally — recovery is broken", report.ArchFailures)
	}
	fmt.Println("all faulted runs recovered to golden architectural state")
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || r < 0 || r > 1 {
			return nil, fmt.Errorf("bad fault rate %q (want 0..1)", f)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no fault rates given")
	}
	return out, nil
}
