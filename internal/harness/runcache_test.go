package harness

import (
	"context"
	"maps"
	"reflect"
	"testing"

	"redsoc/internal/ooo"
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
		runs := newRunCache(pairs)
		if _, err := runGrid(context.Background(), benchmarks, cores, Options{SweepThreshold: tc.sweep, Workers: 2}, runs.run); err != nil {
			t.Fatal(err)
		}
		if got := runs.builds.Load(); got != tc.want {
			t.Errorf("sweep=%v: quick grid made %d engine runs, want %d", tc.sweep, got, tc.want)
		}
	}
}

// mapID is a map's identity, for checking that results share one map.
func mapID[M ~map[K]V, K comparable, V any](m M) uintptr {
	return uintptr(reflect.ValueOf(m).UnsafePointer())
}

// TestRunCacheSharesArchState: every cached result of one program holds the
// program's single canonical FinalRegs/FinalMem, across schedulers, cores
// and the sweep.
func TestRunCacheSharesArchState(t *testing.T) {
	benchmarks := Benchmarks(Quick)[5:7]
	cores := Cores()
	runs := newRunCache(len(benchmarks) * len(cores))
	g, err := runGrid(context.Background(), benchmarks, cores, Options{SweepThreshold: true, Workers: 2}, runs.run)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range g.Cells {
		canon := runs.canon[c.Benchmark.Prog]
		for _, r := range c.Cmp.Engines() {
			res := *r
			if mapID(res.FinalRegs) != mapID(canon.FinalRegs) || mapID(res.FinalMem) != mapID(canon.FinalMem) {
				t.Errorf("%s/%s/%s holds its own architectural state, want the program's canonical copy",
					c.Benchmark.Name, c.Core, res.Config.Policy)
			}
		}
	}
}

// TestRunCacheKeepsDivergentState: a result whose architectural state
// differs from the program's canonical one keeps its own maps, so the
// cross-scheduler ArchEqual check still sees the divergence; an equal one
// adopts the canonical maps.
func TestRunCacheKeepsDivergentState(t *testing.T) {
	b := Benchmarks(Quick)[5]
	cfg := ooo.SmallConfig()
	ref, err := ooo.Run(cfg, b.Prog)
	if err != nil {
		t.Fatal(err)
	}

	runs := newRunCache(1)
	bad := *ref
	bad.FinalMem = maps.Clone(ref.FinalMem)
	bad.FinalMem[0xdead0] = 1
	runs.canon[b.Prog] = &bad
	res, err := runs.run(cfg, b.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if mapID(res.FinalMem) == mapID(bad.FinalMem) || res.ArchEqual(&bad) {
		t.Fatal("a result that diverges from the canonical state must keep its own")
	}

	runs = newRunCache(1)
	good := *ref
	good.FinalRegs, good.FinalMem = maps.Clone(ref.FinalRegs), maps.Clone(ref.FinalMem)
	runs.canon[b.Prog] = &good
	if res, err = runs.run(cfg, b.Prog); err != nil {
		t.Fatal(err)
	}
	if mapID(res.FinalRegs) != mapID(good.FinalRegs) || mapID(res.FinalMem) != mapID(good.FinalMem) {
		t.Fatal("a result equal to the canonical state must share its maps")
	}
}
