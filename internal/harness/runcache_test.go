package harness

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"redsoc/internal/cellstore"
	"redsoc/internal/ooo"
	"redsoc/internal/workload/spec"
)

// TestRunCacheEngineRunCount pins the engine work of the quick grid: with
// the Sec. VI-C sweep each (benchmark, core) needs nine distinct runs —
// baseline, ReDSOC at four candidates, MOS, loaddelay, speclsq and TS's
// rescaled baseline — and without it six. Every repeat the sweep, the cell
// and TS used to make is served from the run cache. The count is exact and
// independent of the host and the worker count.
func TestRunCacheEngineRunCount(t *testing.T) {
	benchmarks, cores := Benchmarks(Quick), Cores()
	pairs := len(benchmarks) * len(cores)
	for _, tc := range []struct {
		sweep bool
		want  int64
	}{
		{true, int64(pairs * 9)},
		{false, int64(pairs * 6)},
	} {
		runs := &runCache{}
		if _, err := runGrid(context.Background(), benchmarks, cores, Options{SweepThreshold: tc.sweep, Workers: 2}, runs); err != nil {
			t.Fatal(err)
		}
		if got := runs.builds.Load(); got != tc.want {
			t.Errorf("sweep=%v: quick grid made %d engine runs, want %d", tc.sweep, got, tc.want)
		}
	}
}

// TestRunCacheDropsCancelledRun: a run that one cell's context stopped is
// never cached and never handed to another cell whose context is live. The
// cell that waited on it — or came after it — gets the real result, built
// again under its own context, and that result is what the cache keeps.
func TestRunCacheDropsCancelledRun(t *testing.T) {
	prog := spec.Generate(spec.Profiles()[0], 200000, 1)
	cfg := ooo.SmallConfig()
	want, err := ooo.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	runs := &runCache{}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan error)
	go func() {
		_, err := runs.run(ctx, cfg, prog)
		stopped <- err
	}()
	for runs.builds.Load() == 0 { // the stopped cell's build is under way
		time.Sleep(time.Millisecond)
	}
	live := make(chan *ooo.Result)
	go func() {
		res, err := runs.run(context.Background(), cfg, prog)
		if err != nil {
			t.Error(err)
		}
		live <- res
	}()
	cancel()
	if err := <-stopped; !errors.Is(err, context.Canceled) {
		t.Fatalf("the cancelled cell's run returned %v, want an error wrapping context.Canceled", err)
	}
	got := <-live
	if got == nil || !reflect.DeepEqual(got, want) {
		t.Fatal("the live cell did not get the real result")
	}
	if n := runs.builds.Load(); n != 2 {
		t.Fatalf("%d builds, want 2: the stopped one and the live cell's own", n)
	}
	if again, err := runs.run(context.Background(), cfg, prog); err != nil || again != got {
		t.Fatalf("the live cell's run was not cached: %v", err)
	}
}

// mapID is a map's identity, for checking that results share one map.
func mapID[M ~map[K]V, K comparable, V any](m M) uintptr {
	return uintptr(reflect.ValueOf(m).UnsafePointer())
}

// TestResumedCellsShareArchState: on a resumed grid, every journaled cell's
// results hold their program's final state — the very maps ooo.FinalState
// returns — on every core, without simulating anything.
func TestResumedCellsShareArchState(t *testing.T) {
	benchmarks, cores := Benchmarks(Quick)[5:8], Cores()
	store, err := cellstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	opts := Options{Workers: 2, Journal: store}
	if _, err := Run(context.Background(), benchmarks, cores, opts); err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	runs := &runCache{}
	g, err := runGrid(context.Background(), benchmarks, cores, opts, runs)
	if err != nil {
		t.Fatal(err)
	}
	if n := runs.builds.Load(); n != 0 {
		t.Fatalf("resumed grid simulated %d runs, want every cell served from the journal", n)
	}
	for _, c := range g.Cells {
		regs, mem, flags := ooo.FinalState(c.Benchmark.Prog)
		for _, r := range c.Cmp.Runs {
			if mapID(r.FinalRegs) != mapID(regs) || mapID(r.FinalMem) != mapID(mem) || r.FinalFlags != flags {
				t.Fatalf("%s/%s: the %s result does not hold its program's final state", c.Benchmark.Name, c.Core, r.Config.Policy)
			}
		}
	}
}

// TestResumedRunsShareArchState: a resumed grid serves every cell the very
// FinalRegs and FinalMem maps the simulating grid's cell held, so a
// journaled and a simulated cell of one program are indistinguishable down
// to map identity.
func TestResumedRunsShareArchState(t *testing.T) {
	benchmarks, cores := Benchmarks(Quick)[5:8], Cores()
	store, err := cellstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	opts := Options{Workers: 2, Journal: store}
	var grids [2]*Grid
	for i := range grids {
		runs := &runCache{}
		if grids[i], err = runGrid(context.Background(), benchmarks, cores, opts, runs); err != nil {
			t.Fatal(err)
		}
		if n := runs.builds.Load(); (n == 0) != opts.Resume {
			t.Fatalf("grid %d (resume %v) simulated %d runs", i, opts.Resume, n)
		}
		opts.Resume = true
	}
	for i, c := range grids[1].Cells {
		for p, r := range c.Cmp.Runs {
			fresh := grids[0].Cells[i].Cmp.Runs[p]
			if mapID(r.FinalRegs) != mapID(fresh.FinalRegs) || mapID(r.FinalMem) != mapID(fresh.FinalMem) {
				t.Errorf("%s/%s: the resumed %s result holds other maps than the simulated one", c.Benchmark.Name, c.Core, r.Config.Policy)
			}
		}
	}
}
