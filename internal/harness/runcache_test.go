package harness

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"redsoc/internal/baseline"
	"redsoc/internal/cellstore"
	"redsoc/internal/isa"
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
		runs := &runCache{}
		if _, err := runGrid(context.Background(), benchmarks, cores, Options{SweepThreshold: tc.sweep, Workers: 2}, runs); err != nil {
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

// TestResumedCellsShareArchState: on a resumed grid, the journaled cells of
// one program decode its architectural state once — the three cores' cells
// share one FinalMem map — while a cell whose journaled section differs
// keeps its own.
func TestResumedCellsShareArchState(t *testing.T) {
	benchmarks, cores := Benchmarks(Quick)[5:8], Cores()
	store, err := cellstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := Run(context.Background(), benchmarks, cores, Options{Workers: 2, Journal: store}); err != nil {
		t.Fatal(err)
	}

	// Rewrite one cell's section with an extra memory word: still a valid
	// payload, but no longer byte-equal to its program's other cells.
	odd := benchmarks[1]
	oddCore := cores[1]
	key := cellKey(coreID(t, oddCore), benchmarkDigest(odd), baseline.DefaultThreshold(oddCore))
	data, ok := store.Get(key)
	if !ok {
		t.Fatal("premise: the cell must be journaled")
	}
	results, section := splitCell(t, data)
	a, err := decodeArch(section)
	if err != nil {
		t.Fatal(err)
	}
	a.Mem[0xdead0] = 1
	if err := store.Put(key, appendArch(slices.Clip(results), a)); err != nil {
		t.Fatal(err)
	}

	runs := &runCache{}
	g, err := runGrid(context.Background(), benchmarks, cores, Options{Workers: 2, Journal: store, Resume: true}, runs)
	if err != nil {
		t.Fatal(err)
	}
	if n := runs.builds.Load(); n != 0 {
		t.Fatalf("resumed grid simulated %d runs, want every cell served from the journal", n)
	}
	mems := map[*isa.Program]map[uintptr]int{}
	for _, c := range g.Cells {
		id := mapID(c.Cmp.Runs[ooo.PolicyBaseline].FinalMem)
		for _, r := range c.Cmp.Runs {
			if mapID(r.FinalMem) != id {
				t.Fatalf("%s/%s: a cell's results hold different memory maps", c.Benchmark.Name, c.Core)
			}
		}
		if mems[c.Benchmark.Prog] == nil {
			mems[c.Benchmark.Prog] = map[uintptr]int{}
		}
		mems[c.Benchmark.Prog][id]++
		if odd := c.Benchmark.Prog == odd.Prog && c.Core == oddCore.Name; odd != (c.Cmp.Runs[ooo.PolicyBaseline].FinalMem[0xdead0] == 1) {
			t.Fatalf("%s/%s: decoded the wrong section", c.Benchmark.Name, c.Core)
		}
	}
	for _, b := range benchmarks {
		var counts []int
		for _, n := range mems[b.Prog] {
			counts = append(counts, n)
		}
		slices.Sort(counts)
		switch {
		case b.Prog == odd.Prog && !slices.Equal(counts, []int{1, 2}):
			t.Errorf("%s: cells per memory map %v, want the odd cell alone and the other two shared", b.Name, counts)
		case b.Prog != odd.Prog && !slices.Equal(counts, []int{len(cores)}):
			t.Errorf("%s: cells per memory map %v, want all %d cells on one map", b.Name, counts, len(cores))
		}
	}
}

// TestArchCacheSharingIgnoresOrder: the cells of a program whose sections
// are byte-equal share one decoded state even when a cell with a different
// section was decoded first.
func TestArchCacheSharingIgnoresOrder(t *testing.T) {
	prog := Benchmarks(Quick)[0].Prog
	common := appendArch(nil, archState{Mem: map[uint64]uint64{0x100: 1}})
	odd := appendArch(nil, archState{Mem: map[uint64]uint64{0x100: 2}})
	var c archCache
	var mems []map[uint64]uint64
	for _, section := range [][]byte{odd, common, slices.Clone(common)} {
		a, err := c.decode(prog, section)
		if err != nil {
			t.Fatal(err)
		}
		mems = append(mems, a.Mem)
	}
	if mems[0][0x100] != 2 || mems[1][0x100] != 1 {
		t.Fatal("decoded the wrong section")
	}
	if mapID(mems[1]) != mapID(mems[2]) {
		t.Fatal("two byte-equal sections decoded after a different one must share one state")
	}
	if mapID(mems[0]) == mapID(mems[1]) {
		t.Fatal("a different section must keep its own state")
	}
}

// TestResumedRunsShareArchState: a program's decoded architectural state
// outlives the Run that decoded it. Of two resumed runs over one suite, the
// second serves every cell the very FinalMem map the first served, so it
// decodes no section, and the cells of one program share one map across
// the cores.
func TestResumedRunsShareArchState(t *testing.T) {
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
	var grids [2]*Grid
	for i := range grids {
		runs := &runCache{}
		if grids[i], err = runGrid(context.Background(), benchmarks, cores, opts, runs); err != nil {
			t.Fatal(err)
		}
		if n := runs.builds.Load(); n != 0 {
			t.Fatalf("resumed grid %d simulated %d runs, want every cell served from the journal", i, n)
		}
	}
	perProg := map[*isa.Program]uintptr{}
	for i, c := range grids[1].Cells {
		id := mapID(c.Cmp.Runs[ooo.PolicyBaseline].FinalMem)
		if id != mapID(grids[0].Cells[i].Cmp.Runs[ooo.PolicyBaseline].FinalMem) {
			t.Errorf("%s/%s: the second run decoded its own FinalMem instead of sharing the first run's", c.Benchmark.Name, c.Core)
		}
		if first, ok := perProg[c.Benchmark.Prog]; ok && first != id {
			t.Errorf("%s/%s: the cells of one program hold different FinalMem maps", c.Benchmark.Name, c.Core)
		}
		perProg[c.Benchmark.Prog] = id
	}
}
