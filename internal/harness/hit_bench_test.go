package harness

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"

	"redsoc/internal/cellstore"
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
	store, err := cellstore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	opts := Options{SweepThreshold: true, Workers: 2, Journal: store}
	if _, err := Run(context.Background(), benchmarks, cores, opts); err != nil {
		b.Fatal(err)
	}
	opts.Resume = true
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
