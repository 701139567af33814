package harness

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"redsoc/internal/baseline"
	"redsoc/internal/ooo"
)

// runSerialReference is the pre-campaign serial evaluation loop, kept
// verbatim as the golden reference: the parallel Run must reproduce its
// grid — cells, thresholds, progress lines and rendered tables — byte for
// byte at any worker count.
func runSerialReference(benchmarks []Benchmark, cores []ooo.Config, opts Options) (*Grid, error) {
	g := &Grid{ChosenThreshold: map[Class]map[string]int{}}
	byClass := map[Class][]Benchmark{}
	for _, b := range benchmarks {
		byClass[b.Class] = append(byClass[b.Class], b)
	}
	for _, class := range Classes() {
		bs := byClass[class]
		if len(bs) == 0 {
			continue
		}
		g.ChosenThreshold[class] = map[string]int{}
		for _, cfg := range cores {
			th, err := chooseThresholdSerial(bs, cfg, opts)
			if err != nil {
				return nil, err
			}
			g.ChosenThreshold[class][cfg.Name] = th
			for _, b := range bs {
				cmp, err := baseline.Compare(context.Background(), cfg, b.Prog, th)
				if err != nil {
					return nil, fmt.Errorf("harness: %s on %s: %w", b.Name, cfg.Name, err)
				}
				if err := verify(b, cmp); err != nil {
					return nil, err
				}
				g.Cells = append(g.Cells, Cell{Benchmark: b, Core: cfg.Name, Threshold: th, Cmp: cmp})
				if opts.Progress != nil {
					opts.Progress(fmt.Sprintf("%-8s %-10s %-7s redsoc %+5.1f%%  ts %+5.1f%%  mos %+5.1f%%  loaddelay %+5.1f%%  speclsq %+5.1f%%",
						class, b.Name, cfg.Name,
						100*(cmp.RedsocSpeedup()-1), 100*(cmp.TSSpeedup()-1), 100*(cmp.MOSSpeedup()-1),
						100*(cmp.LoadDelaySpeedup()-1), 100*(cmp.SpecLSQSpeedup()-1)))
				}
			}
		}
	}
	return g, nil
}

func chooseThresholdSerial(bs []Benchmark, cfg ooo.Config, opts Options) (int, error) {
	if !opts.SweepThreshold {
		return cfg.WithPolicy(ooo.PolicyRedsoc).Redsoc.ThresholdTicks, nil
	}
	best, bestGain := ThresholdCandidates[0], -1.0
	for _, th := range ThresholdCandidates {
		total := 0.0
		for _, b := range bs {
			base, err := ooo.Run(cfg.WithPolicy(ooo.PolicyBaseline), b.Prog)
			if err != nil {
				return 0, err
			}
			rc := cfg.WithPolicy(ooo.PolicyRedsoc)
			rc.Redsoc.ThresholdTicks = th
			red, err := ooo.Run(rc, b.Prog)
			if err != nil {
				return 0, err
			}
			total += red.SpeedupOver(base)
		}
		if total > bestGain {
			best, bestGain = th, total
		}
	}
	return best, nil
}

// gridFingerprint renders everything an observer of a grid can see: the
// markdown record, every figure table, the chosen thresholds and the raw
// per-cell cycle counts of all six schedulers.
func gridFingerprint(t *testing.T, g *Grid) string {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	for _, tab := range []fmt.Stringer{
		g.Fig10Table(), g.Fig11Table(), g.Fig12Table(),
		g.Fig13Table(), g.Fig14Table(), g.Fig15Table(),
		g.ThresholdTable(), g.PowerTable(),
	} {
		buf.WriteString(tab.String())
	}
	for _, class := range Classes() {
		for _, core := range []string{"Big", "Medium", "Small"} {
			if th, ok := g.ChosenThreshold[class][core]; ok {
				fmt.Fprintf(&buf, "threshold %s/%s = %d\n", class, core, th)
			}
		}
	}
	for _, c := range g.Cells {
		fmt.Fprintf(&buf, "cell %s/%s/%s th=%d base=%d redsoc=%d mos=%d loaddelay=%d speclsq=%d ts=%.6f recycled=%d holds=%d viol=%d\n",
			c.Benchmark.Class, c.Benchmark.Name, c.Core, c.Threshold,
			c.Cmp.Baseline.Cycles, c.Cmp.Redsoc.Cycles, c.Cmp.MOS.Cycles,
			c.Cmp.LoadDelay.Cycles, c.Cmp.SpecLSQ.Cycles, c.Cmp.TSSpeedup(),
			c.Cmp.Redsoc.RecycledOps, c.Cmp.Redsoc.TwoCycleHolds, c.Cmp.Redsoc.TimingViolations)
	}
	return buf.String()
}

// TestParallelGridMatchesSerialGolden runs the full quick-scale evaluation —
// fifteen benchmarks × three cores with the Sec. VI-C threshold sweep — once
// through the pre-PR serial reference and once through the parallel campaign
// engine, and requires byte-identical output: cycles, counters, thresholds,
// markdown and figure tables, and the progress stream.
func TestParallelGridMatchesSerialGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-scale grid: skipped in -short mode")
	}
	benchmarks := Benchmarks(Quick)
	cores := Cores()

	var serialLines []string
	serialOpts := Options{SweepThreshold: true, Progress: func(s string) { serialLines = append(serialLines, s) }}
	serial, err := runSerialReference(benchmarks, cores, serialOpts)
	if err != nil {
		t.Fatal(err)
	}

	var parLines []string
	parOpts := Options{SweepThreshold: true, Workers: runtime.NumCPU(),
		Progress: func(s string) { parLines = append(parLines, s) }}
	par, err := Run(context.Background(), benchmarks, cores, parOpts)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := strings.Join(parLines, "\n"), strings.Join(serialLines, "\n"); got != want {
		t.Errorf("progress streams diverge:\nparallel:\n%s\nserial:\n%s", got, want)
	}
	sf, pf := gridFingerprint(t, serial), gridFingerprint(t, par)
	if sf != pf {
		t.Fatalf("parallel grid diverges from the serial reference:\n%s", firstDiff(sf, pf))
	}
}

// TestWorkerCountInvarianceMiniGrid is the cheap j-sweep: a one-benchmark-
// per-class grid on two cores must fingerprint identically at 1, 2 and many
// workers.
func TestWorkerCountInvarianceMiniGrid(t *testing.T) {
	all := Benchmarks(Quick)
	var bs []Benchmark
	seen := map[Class]bool{}
	for _, b := range all {
		if !seen[b.Class] {
			seen[b.Class] = true
			bs = append(bs, b)
		}
	}
	cores := []ooo.Config{ooo.BigConfig(), ooo.SmallConfig()}
	run := func(workers int) (string, string) {
		var lines []string
		g, err := Run(context.Background(), bs, cores, Options{SweepThreshold: true, Workers: workers,
			Progress: func(s string) { lines = append(lines, s) }})
		if err != nil {
			t.Fatal(err)
		}
		return gridFingerprint(t, g), strings.Join(lines, "\n")
	}
	refFP, refLines := run(1)
	for _, workers := range []int{2, 0} {
		fp, lines := run(workers)
		if fp != refFP {
			t.Fatalf("workers=%d grid diverges from workers=1:\n%s", workers, firstDiff(refFP, fp))
		}
		if lines != refLines {
			t.Fatalf("workers=%d progress diverges from workers=1:\n%s vs\n%s", workers, lines, refLines)
		}
	}
}

// firstDiff locates the first differing line of two renderings.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  a: %q\n  b: %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
