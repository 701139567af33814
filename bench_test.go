// Benchmarks that regenerate every table and figure of the paper's
// evaluation. Each benchmark prints the reproduced rows (via b.Log) and
// reports simulation throughput; run them with
//
//	go test -bench=. -benchmem
//
// The grid (all benchmarks × cores × schedulers, with the Sec. VI-C
// threshold sweep) is computed once and shared across the figure benchmarks.
package redsoc

import (
	"context"
	"sync"
	"testing"

	"redsoc/internal/core"
	"redsoc/internal/harness"
	"redsoc/internal/ooo"
	"redsoc/internal/timing"
)

var (
	gridOnce sync.Once
	grid     *harness.Grid
	gridErr  error
)

func evalGrid(b *testing.B) *harness.Grid {
	b.Helper()
	gridOnce.Do(func() {
		grid, gridErr = harness.Run(context.Background(), harness.Benchmarks(harness.Quick), harness.Cores(),
			harness.Options{SweepThreshold: true})
	})
	if gridErr != nil {
		b.Fatal(gridErr)
	}
	return grid
}

func BenchmarkFig01OpcodeDelays(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = harness.Fig1Table().String()
	}
	b.Log(out)
}

func BenchmarkFig02AdderCriticalPath(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = harness.Fig2Table().String()
	}
	b.Log(out)
}

func BenchmarkFig03SlackLUT(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = harness.Fig3Table().String()
	}
	b.Log(out)
}

func BenchmarkTable1Cores(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = harness.TableITable().String()
	}
	b.Log(out)
}

// BenchmarkTable2MLKernels runs the five Table II kernels on the Big core
// under ReDSOC, reporting simulated instructions per wall-clock second.
func BenchmarkTable2MLKernels(b *testing.B) {
	benchmarks := harness.Benchmarks(harness.Quick)
	var total int64
	for i := 0; i < b.N; i++ {
		for _, bench := range benchmarks {
			if bench.Class != harness.ClassML {
				continue
			}
			res, err := ooo.Run(ooo.BigConfig().WithPolicy(ooo.PolicyRedsoc), bench.Prog)
			if err != nil {
				b.Fatal(err)
			}
			total += res.Instructions
		}
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sim-instrs/s")
}

func BenchmarkFig10OperationMix(b *testing.B) {
	g := evalGrid(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = g.Fig10Table().String()
	}
	b.Log(out)
}

func BenchmarkFig11TransparentSeqLength(b *testing.B) {
	g := evalGrid(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = g.Fig11Table().String()
	}
	b.Log(out)
}

func BenchmarkFig12TagMisprediction(b *testing.B) {
	g := evalGrid(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = g.Fig12Table().String()
	}
	b.Log(out)
}

func BenchmarkFig13Speedup(b *testing.B) {
	g := evalGrid(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = g.Fig13Table().String()
	}
	b.Log(out)
}

func BenchmarkFig14FUStalls(b *testing.B) {
	g := evalGrid(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = g.Fig14Table().String()
	}
	b.Log(out)
}

func BenchmarkFig15Comparison(b *testing.B) {
	g := evalGrid(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = g.Fig15Table().String()
	}
	b.Log(out)
}

func BenchmarkSlackPrecisionSweep(b *testing.B) {
	benchmarks := harness.Benchmarks(harness.Quick)
	var probe harness.Benchmark
	for _, bench := range benchmarks {
		if bench.Name == "bitcnt" {
			probe = bench
		}
	}
	var out string
	for i := 0; i < b.N; i++ {
		t, err := harness.PrecisionSweep(probe.Prog, ooo.BigConfig(), []int{1, 2, 3, 4, timing.MaxPrecisionBits})
		if err != nil {
			b.Fatal(err)
		}
		out = t.String()
	}
	b.Log(out)
}

func BenchmarkWidthPredictorAccuracy(b *testing.B) {
	g := evalGrid(b)
	var agg, n float64
	for i := 0; i < b.N; i++ {
		agg, n = 0, 0
		for _, c := range g.CellsOf("", "Big") {
			agg += c.Cmp.Runs[ooo.PolicyRedsoc].WidthPredictor.AggressiveRate()
			n++
		}
	}
	b.Logf("mean aggressive width-misprediction rate (Big): %.3f%% (paper: 0.3-0.4%% on full traces)",
		100*agg/n)
}

func BenchmarkPowerSavings(b *testing.B) {
	g := evalGrid(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = g.PowerTable().String()
	}
	b.Log(out)
}

func BenchmarkThresholdSweep(b *testing.B) {
	g := evalGrid(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = g.ThresholdTable().String()
	}
	b.Log(out)
}

// Ablation benches: the design choices DESIGN.md calls out.

func BenchmarkAblationEGPW(b *testing.B) {
	benchs := harness.Benchmarks(harness.Quick)
	prog := benchs[0].Prog
	for _, bench := range benchs {
		if bench.Name == "bitcnt" {
			prog = bench.Prog
		}
	}
	var with, without int64
	for i := 0; i < b.N; i++ {
		full := ooo.BigConfig().WithPolicy(ooo.PolicyRedsoc)
		r1, err := ooo.Run(full, prog)
		if err != nil {
			b.Fatal(err)
		}
		no := full
		no.Redsoc.EGPW = false
		r2, err := ooo.Run(no, prog)
		if err != nil {
			b.Fatal(err)
		}
		with, without = r1.Cycles, r2.Cycles
	}
	b.Logf("bitcnt/Big: with EGPW %d cycles, without %d cycles", with, without)
}

func BenchmarkAblationOperationalVsIllustrative(b *testing.B) {
	var prog = harness.Benchmarks(harness.Quick)[0].Prog
	var op, il int64
	for i := 0; i < b.N; i++ {
		cfg := ooo.BigConfig().WithPolicy(ooo.PolicyRedsoc)
		r1, err := ooo.Run(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Redsoc.Design = core.Illustrative
		r2, err := ooo.Run(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		op, il = r1.Cycles, r2.Cycles
	}
	b.Logf("%s/Big: operational %d cycles, illustrative %d cycles (paper: within ~1%%)",
		prog.Name, op, il)
}

// BenchmarkSimulatorThroughput measures raw simulation speed on the Big core,
// one sub-benchmark per scheduler policy, so a policy's own scheduling cost
// (MOS fusion probing, EGPW grandparent wakeups, load-delay tracking) shows
// against the others. The redsoc sub-benchmark is the historical reference.
func BenchmarkSimulatorThroughput(b *testing.B) {
	prog := harness.Benchmarks(harness.Quick)[0].Prog
	for _, pol := range []ooo.Policy{ooo.PolicyRedsoc, ooo.PolicyBaseline, ooo.PolicyMOS, ooo.PolicyLoadDelay, ooo.PolicySpecLSQ} {
		cfg := ooo.BigConfig().WithPolicy(pol)
		b.Run(pol.String(), func(b *testing.B) {
			b.ReportAllocs()
			var instrs int64
			for i := 0; i < b.N; i++ {
				res, err := ooo.Run(cfg, prog)
				if err != nil {
					b.Fatal(err)
				}
				instrs += res.Instructions
			}
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim-instrs/s")
		})
	}
}

// BenchmarkSimulatorThroughputTraced measures the same workload with a
// flight recorder attached. Compare its sim-instrs/s against
// BenchmarkSimulatorThroughput to bound the cost of enabled tracing; the
// untraced benchmark above is the zero-overhead (nil sink) reference.
func BenchmarkSimulatorThroughputTraced(b *testing.B) {
	benchs := harness.Benchmarks(harness.Quick)
	var prog = benchs[0].Prog
	b.ReportAllocs()
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		sim, err := ooo.New(ooo.BigConfig().WithPolicy(ooo.PolicyRedsoc), prog)
		if err != nil {
			b.Fatal(err)
		}
		sim.AttachFlightRecorder(256)
		res, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim-instrs/s")
}
