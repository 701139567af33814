package ooo

import (
	"reflect"
	"runtime"
	"testing"

	"redsoc/internal/isa"
	"redsoc/internal/predict"
	"redsoc/internal/workload/mibench"
	"redsoc/internal/workload/ml"
)

// TestPooledStorageIsInvisible pins the storage reset contract: a run on
// storage another simulation has just dirtied — a different program, core,
// policy, memory image and predictor table sizes, run to completion or
// abandoned mid-flight by the deadlock guard with live slab entries —
// produces exactly the Result of a run on fresh storage.
func TestPooledStorageIsInvisible(t *testing.T) {
	conv, _ := ml.Conv(24, 16, 23)
	bitcnt, _ := mibench.Bitcount(400, 15)
	// Each case dirties the predictors its measured run reads: the width,
	// last-arrival and branch tables under ReDSOC, the load-delay tracker
	// under loaddelay, at other sizes than the measured run's.
	bigTables := func(c Config) Config {
		c.WidthPredictorEntries = 2 * predict.DefaultWidthEntries
		c.LastArrivalEntries = predict.DefaultLastArrivalEntries / 2
		c.LoadDelayEntries = 4 * predict.DefaultLoadDelayEntries
		return c
	}
	for _, c := range []struct {
		cfg, dirty Config
	}{
		{SmallConfig().WithPolicy(PolicyRedsoc), BigConfig().WithPolicy(PolicyMOS)},
		{SmallConfig().WithPolicy(PolicyRedsoc), bigTables(BigConfig().WithPolicy(PolicyRedsoc))},
		{SmallConfig().WithPolicy(PolicyLoadDelay), bigTables(BigConfig().WithPolicy(PolicyLoadDelay))},
	} {
		cfg := c.cfg
		// An empty spare list makes New build fresh storage for the
		// reference run.
		drainSpare()
		want := run(t, cfg, bitcnt)

		for _, abort := range []bool{false, true} {
			dirtyCfg := c.dirty
			if abort {
				dirtyCfg.MaxCycles = 60
			}
			dirty, err := New(dirtyCfg, conv)
			if err != nil {
				t.Fatal(err)
			}
			st := dirty.store
			if _, err := dirty.Run(); (err != nil) != abort {
				t.Fatalf("dirtying run (abort %v): err = %v", abort, err)
			}
			// The spare list is last in, first out, so the next New takes
			// the bundle the dirtying run just returned.
			s, err := New(cfg, bitcnt)
			if err != nil {
				t.Fatal(err)
			}
			if s.store != st {
				t.Fatalf("%s after %s/%s (abort %v): New did not reuse the dirtied storage; the test proves nothing",
					cfg.Policy, dirtyCfg.Name, dirtyCfg.Policy, abort)
			}
			got, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				sameResult(t, got, want)
				t.Fatalf("%s after %s/%s (abort %v): result differs from a run on fresh storage",
					cfg.Policy, dirtyCfg.Name, dirtyCfg.Policy, abort)
			}
		}
	}
}

// drainSpare empties the spare list, so the next New builds fresh storage.
func drainSpare() {
	spare.Lock()
	spare.list = nil
	spare.Unlock()
}

// TestSecondRunRefused: Run hands the machine storage back, so a second call
// must fail rather than re-run on storage another simulation may own, and the
// first call's Result must stay as it was.
func TestSecondRunRefused(t *testing.T) {
	p, _ := mibench.Bitcount(400, 15)
	cfg := BigConfig().WithPolicy(PolicyRedsoc)
	s, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Run()
	if err == nil {
		t.Fatalf("second Run succeeded (cycles %d); want an error", again.Cycles)
	}
	if again != nil {
		t.Errorf("second Run returned a Result alongside its error")
	}
	if want := run(t, cfg, p); !reflect.DeepEqual(first, want) {
		sameResult(t, first, want)
		t.Fatal("second Run changed the first Run's Result")
	}
}

// warmRunBound bounds what a warm New + Run may allocate: well under the
// ~330 kB a fresh cache hierarchy alone costs.
const warmRunBound = 32 << 10

// newRunAlloc runs one New + Run of p on cfg and returns the bytes it
// allocated.
func newRunAlloc(t *testing.T, cfg Config, p *isa.Program) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWarmRunAllocationBound: once the spare list holds a finished run's
// storage and the program has its canonical final state, a New + Run pair
// allocates no cache arrays, predictor tables or final-state maps, about
// 21 kB in all. The minimum over several runs discounts allocations of
// other goroutines.
func TestWarmRunAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	p, _ := mibench.Bitcount(400, 15)
	cfg := BigConfig().WithPolicy(PolicyRedsoc)
	newRunAlloc(t, cfg, p)
	least := uint64(1 << 62)
	for i := 0; i < 5; i++ {
		least = min(least, newRunAlloc(t, cfg, p))
	}
	if least > warmRunBound {
		t.Fatalf("a warm New + Run allocated %d bytes; want at most %d", least, warmRunBound)
	}
	t.Logf("warm New + Run: %d bytes", least)
}

// TestStorageSurvivesCollection: a finished run's storage waits for the
// next New through garbage collections, so a warm New + Run after two
// forced collections still reuses it and allocates no cache hierarchy.
func TestStorageSurvivesCollection(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	p, _ := mibench.Bitcount(400, 15)
	cfg := BigConfig().WithPolicy(PolicyRedsoc)
	newRunAlloc(t, cfg, p)
	runtime.GC()
	runtime.GC()
	if n := newRunAlloc(t, cfg, p); n > warmRunBound {
		t.Fatalf("a warm New + Run after two collections allocated %d bytes; want at most %d", n, warmRunBound)
	}
}
