package main

import (
	"bytes"
	"context"
	"embed"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"redsoc/internal/harness"
)

// expectDir holds the benchmark's pinned outputs: the full grid's per-cell
// cycle counts (no committed baseline covers the full scale) and
// sim-compute's cycle counts at the default seed.
//
//go:embed expect/*.json
var expectDir embed.FS

const expectPath = "perfbench/expect" // relative to the repository root

func readExpect(name string, parse func([]byte) error) error {
	data, err := expectDir.ReadFile("expect/" + name)
	if err != nil {
		return err
	}
	return parse(data)
}

// writeExpect rewrites a pinned file in the source tree (-update-expect).
func writeExpect(name string, data []byte) error {
	if err := os.MkdirAll(expectPath, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(expectPath, name), data, 0o644)
}

// runGrid is the full-scale paper evaluation: harness.Run over the fifteen
// benchmarks × Big/Medium/Small, all schedulers plus TS, the Sec. VI-C
// sweep on, two campaign workers, no journal — the run a user reproducing
// the paper waits on. Its inputs are the paper's fixed evaluation, so the
// seed selects nothing here.
func runGrid(b *bench) error {
	var bs []harness.Benchmark
	if err := b.setup(func(tr *tracer, keep bool) (func(), error) {
		if got := buildSuite(tr, harness.Full); keep {
			bs = got
		}
		return nil, nil
	}); err != nil {
		return err
	}
	cores := harness.Cores()
	var want *harness.Baseline
	if !b.update {
		if err := readExpect("grid.json", func(d []byte) (err error) {
			want, err = harness.ReadBaseline(bytes.NewReader(d))
			return err
		}); err != nil {
			return err
		}
	}

	var gaps, throughput []float64
	var last *harness.Grid
	var lastInstrs float64
	plain, traced, err := b.iterate(3, func(id int, tr *tracer) (float64, error) {
		var mu sync.Mutex
		var done []time.Time
		start := time.Now()
		root := tr.begin(id, -1, "grid.iteration")
		sp := tr.begin(id, root, "harness.Run")
		g, err := harness.Run(context.Background(), bs, cores, harness.Options{
			SweepThreshold: true,
			Workers:        workers,
			OnCell: func(ev harness.CellEvent) {
				sweep := 0.0
				if ev.Kind == "sweep-total" {
					sweep = 1
				}
				tr.mark(id, sp, "campaign.unit", map[string]float64{"sweep": sweep})
				mu.Lock()
				done = append(done, time.Now())
				mu.Unlock()
			},
		})
		tr.end(sp, nil)
		if err != nil {
			b.res.attempt(1)
			return 0, err
		}
		rep := renderReport(tr, id, root, g, "full")
		wall := elapsed(start)
		tr.end(root, nil)

		got := harness.BaselineOf(rep)
		if b.update {
			var buf bytes.Buffer
			if err := harness.WriteBaseline(&buf, got); err != nil {
				return 0, err
			}
			if err := writeExpect("grid.json", buf.Bytes()); err != nil {
				return 0, err
			}
			want = got
		}
		compareCells(b.res, fmt.Sprintf("grid iteration %d", id), want, got)
		last, lastInstrs = g, gridInstrs(rep, true)
		if tr == nil {
			prev := start
			for _, t := range done {
				gaps = append(gaps, t.Sub(prev).Seconds()*1e3)
				prev = t
			}
			throughput = append(throughput, lastInstrs/wall/1e6)
		}
		return wall, nil
	})
	if err != nil {
		return err
	}
	b.reportIterations(plain, traced)
	if b.tr == nil {
		b.set("job_miss_s", median(walls(plain)), len(plain))
		b.set("job_hit_p50_ms", median(gaps), len(gaps))
		b.set("job_hit_p90_ms", quantile(gaps, 0.9), len(gaps))
		b.set("sim_minstr_per_s", median(throughput), len(plain))
		return nil
	}
	replayed, instrs, err := replayGrid(b.tr, b.res, bs, cores, last.ChosenThreshold, true)
	if err != nil {
		return err
	}
	compareCells(b.res, "grid replay", want, replayed)
	if instrs != lastInstrs {
		b.res.fail("grid replay simulated %.0f instructions, the grid's count is %.0f", instrs, lastInstrs)
	}
	b.layerMetrics("harness.Run")
	return nil
}
