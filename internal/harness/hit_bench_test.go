package harness

import (
	"context"
	"encoding/json"
	"runtime"
	"sync/atomic"
	"testing"

	"redsoc/internal/cellstore"
	"redsoc/internal/ooo"
)

// BenchmarkGridResume times a cache-hit job in process: the quick grid with
// the threshold sweep, every unit served from a journal warmed once before
// the timer starts, then flattened into its report and marshalled — the
// work a repeated serve job does, without HTTP and the queue. It fails if
// any unit was simulated instead: a journal miss, or a journaled payload
// the decoder refused.
//
//	go test -run '^$' -bench GridResume -benchmem ./internal/harness
func BenchmarkGridResume(b *testing.B) {
	benchmarks, cores := Benchmarks(Quick), Cores()
	opts := warmJournal(b, benchmarks, cores)
	var simulated atomic.Int64
	opts.OnCell = func(ev CellEvent) {
		if !ev.Hit {
			simulated.Add(1)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := Run(context.Background(), benchmarks, cores, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := json.MarshalIndent(g.Report(), "", "  "); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := simulated.Load(); n != 0 {
		b.Fatalf("%d units simulated, want every unit served from the journal", n)
	}
}

// warmJournal journals the grid of benchmarks × cores, with the threshold
// sweep, into a fresh store and returns the options that resume it.
func warmJournal(tb testing.TB, benchmarks []Benchmark, cores []ooo.Config) Options {
	tb.Helper()
	store, err := cellstore.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { store.Close() })
	opts := Options{SweepThreshold: true, Workers: 2, Journal: store}
	if _, err := Run(context.Background(), benchmarks, cores, opts); err != nil {
		tb.Fatal(err)
	}
	opts.Resume = true
	return opts
}

// warmResumeBound bounds what a resumed quick-grid Run allocates once an
// earlier resumed Run has decoded every program's architectural state. It
// measured 0.60 MB (Go 1.24, linux/amd64), most of it the 225 decoded
// Results, and the bound is that plus about 10%: a dense delay histogram
// per Result, a fresh read buffer per value file or architectural-state
// sections decoded again each fail it.
const warmResumeBound = 650 << 10

// TestWarmResumeAllocationBound: a resumed quick-grid Run after a warm one
// decodes no architectural-state section, so a per-run decode coming back
// fails the bound. The minimum over several runs discounts allocations of
// other goroutines.
func TestWarmResumeAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	benchmarks, cores := Benchmarks(Quick), Cores()
	opts := warmJournal(t, benchmarks, cores)
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(context.Background(), benchmarks, cores, opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run()
	least := uint64(1 << 62)
	for i := 0; i < 3; i++ {
		least = min(least, run())
	}
	t.Logf("warm resumed Run: %d bytes", least)
	if least > warmResumeBound {
		t.Fatalf("a warm resumed quick-grid Run allocated %d bytes; want at most %d", least, warmResumeBound)
	}
}
