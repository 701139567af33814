// Command redsoc-bench reproduces the paper's full evaluation: it runs all
// fifteen benchmarks on the three Table I cores under baseline, ReDSOC, TS
// and MOS scheduling, applies the Sec. VI-C threshold sweep, and prints
// every figure and table of the paper as text. The grid runs on the shared
// concurrent campaign engine: -j sets the worker count, and every table and
// report value is bit-identical at any -j; only the wall time changes.
//
// Usage:
//
//	redsoc-bench [-scale quick|full] [-quick] [-sweep] [-v] [-j N]
//	             [-md FILE] [-report BENCH_report.json] [-metrics-out FILE]
//	             [-baseline .github/bench-baseline.json] [-update-baseline]
//	             [-journal DIR] [-resume] [-shard i/n]
//	             [-cell-timeout D]
//
// -journal DIR arms the crash-safe campaign journal: every completed sweep
// total and grid cell is persisted (content-addressed, atomically written)
// as the run proceeds, and SIGINT cancels in-flight cells while keeping
// everything already journaled. Re-running with -resume serves journaled
// cells instead of re-simulating them; determinism makes the resumed report
// bit-identical to an uninterrupted run (wall_seconds aside).
//
// -shard i/n splits the campaign across cooperating processes: shard i of n
// computes only the grid cells it owns (cell index mod n == i), journaling
// them into the shared -journal DIR, which is the shard's product — no
// report, figures or baseline gate are emitted. When every shard has run,
// a plain -journal DIR -resume invocation merges the grid by index entirely
// from the journal, byte-identical to an unsharded run (wall_seconds aside).
//
// -baseline arms the CI bench-regression gate: the run's per-cell cycle
// counts must match the committed baseline exactly or the command exits
// nonzero listing every drifted cell. Refresh the baseline after a
// deliberate behavioral change with:
//
//	go run ./cmd/redsoc-bench -quick -update-baseline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"time"

	"redsoc/cmd/internal/campaigncli"
	"redsoc/internal/harness"
	"redsoc/internal/obs"
	"redsoc/internal/ooo"
	"redsoc/internal/timing"
)

// benchBaselinePath is where -update-baseline writes the committed CI
// performance baseline (relative to the repository root).
const benchBaselinePath = ".github/bench-baseline.json"

func main() {
	log.SetFlags(0)
	log.SetPrefix("redsoc-bench: ")
	scaleFlag := flag.String("scale", "full", "benchmark sizes: quick or full")
	quick := flag.Bool("quick", false, "shorthand for -scale quick")
	sweep := flag.Bool("sweep", true, "run the Sec. VI-C slack-threshold design sweep")
	verbose := flag.Bool("v", false, "print per-cell progress")
	mdOut := flag.String("md", "", "also write generated-results markdown to this file")
	workers := flag.Int("j", 0, "campaign workers (0 = all CPUs); results are identical at any -j")
	reportOut := flag.String("report", "BENCH_report.json", "write the machine-readable report here (empty = skip)")
	metricsOut := flag.String("metrics-out", "", "write aggregated per-run metrics snapshots (JSON) to this file")
	baselineFile := flag.String("baseline", "", "check per-cell cycle counts against this committed baseline; any drift fails")
	updateBaseline := flag.Bool("update-baseline", false, "rewrite .github/bench-baseline.json from this run and exit 0")
	cf := campaigncli.Register("grid")
	flag.Parse()

	scale := harness.Full
	if *quick {
		*scaleFlag = "quick"
	}
	switch *scaleFlag {
	case "quick":
		scale = harness.Quick
	case "full":
	default:
		log.Fatalf("unknown -scale %q (want quick or full)", *scaleFlag)
	}
	cf.Open()
	defer cf.Close()

	fmt.Println("ReDSOC evaluation — Recycling Data Slack in Out-of-Order Cores (HPCA'19)")
	harness.Fig1Table().Render(os.Stdout)
	harness.Fig2Table().Render(os.Stdout)
	harness.Fig3Table().Render(os.Stdout)
	harness.TableITable().Render(os.Stdout)
	harness.OverheadTable().Render(os.Stdout)

	if *workers <= 0 {
		*workers = runtime.NumCPU()
	}
	start := time.Now() //lint:allow detflow wall time is operator diagnostics; BaselineOf strips WallSeconds before the gate compares
	benchmarks := harness.Benchmarks(scale)
	opts := cf.Options()
	opts.SweepThreshold, opts.Workers = *sweep, *workers
	if *verbose {
		opts.Progress = func(line string) { fmt.Println("  " + line) }
	}
	ctx, stopSignals := campaigncli.Context()
	defer stopSignals()

	grid, err := harness.Run(ctx, benchmarks, harness.Cores(), opts)
	if err != nil {
		cf.Fail(err)
	}
	wall := time.Since(start)
	cf.Done()
	if cf.Shard.Enabled() {
		// A shard's product is its journal, not a report: the grid it holds is
		// partial by design, so every report/figure/baseline artifact is
		// skipped until the merge run reassembles the full grid.
		fmt.Printf("shard %s complete in %s — merge with: redsoc-bench -journal %s -resume\n",
			cf.Shard, wall.Round(time.Millisecond), cf.Dir)
		return
	}

	if *mdOut != "" {
		writeFile(*mdOut, "wrote", grid.WriteMarkdown)
	}
	report := grid.Report()
	report.Scale = *scaleFlag
	report.Workers = *workers
	report.WallSeconds = wall.Seconds()
	if *reportOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		writeFile(*reportOut, "wrote", func(w io.Writer) error { _, err := w.Write(append(data, '\n')); return err })
	}
	if *metricsOut != "" {
		writeFile(*metricsOut, "wrote", func(w io.Writer) error { return obs.WriteJSON(w, grid.MetricsSet(*scaleFlag)) })
	}
	if *updateBaseline {
		writeFile(benchBaselinePath, "refreshed", func(w io.Writer) error {
			return harness.WriteBaseline(w, harness.BaselineOf(report))
		})
		return
	}
	if *baselineFile != "" {
		f, err := os.Open(*baselineFile)
		if err != nil {
			log.Fatal(err)
		}
		base, err := harness.ReadBaseline(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if err := base.Check(report); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("baseline gate: %d cells match %s exactly\n", len(base.Cells), *baselineFile)
	}

	grid.Fig10Table().Render(os.Stdout)
	grid.Fig11Table().Render(os.Stdout)
	grid.Fig12Table().Render(os.Stdout)
	grid.Fig13Table().Render(os.Stdout)
	grid.Fig14Table().Render(os.Stdout)
	grid.Fig15Table().Render(os.Stdout)
	grid.ThresholdTable().Render(os.Stdout)
	grid.PowerTable().Render(os.Stdout)

	// Sec. V precision sweep on a recycling-sensitive benchmark.
	if probe, err := harness.FindBenchmark(benchmarks, "bitcnt"); err == nil {
		t, err := harness.PrecisionSweep(probe.Prog, ooo.BigConfig(), []int{1, 2, 3, 4, 5, timing.MaxPrecisionBits})
		if err != nil {
			log.Fatal(err)
		}
		t.Render(os.Stdout)
	}

	fmt.Printf("\ncompleted in %s (grid %s, %d workers)\n",
		time.Since(start).Round(time.Millisecond), wall.Round(time.Millisecond), opts.Workers)
}

// writeFile creates path, fills it with write and reports it as verb;
// any failure is fatal.
func writeFile(path, verb string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println(verb, path)
}
