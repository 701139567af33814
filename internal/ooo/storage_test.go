package ooo

import (
	"reflect"
	"runtime"
	"testing"

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
		// Two collections empty the pool (the first moves its items to the
		// victim cache, the second drops them), so this run builds fresh
		// storage.
		runtime.GC()
		runtime.GC()
		want := run(t, cfg, bitcnt)

		for _, abort := range []bool{false, true} {
			dirtyCfg := c.dirty
			if abort {
				dirtyCfg.MaxCycles = 60
			}
			reused := false
			for attempt := 0; attempt < 5 && !reused; attempt++ {
				dirty, err := New(dirtyCfg, conv)
				if err != nil {
					t.Fatal(err)
				}
				st := dirty.store
				if _, err := dirty.Run(); (err != nil) != abort {
					t.Fatalf("dirtying run (abort %v): err = %v", abort, err)
				}
				s, err := New(cfg, bitcnt)
				if err != nil {
					t.Fatal(err)
				}
				// sync.Pool gives no guarantee of handing the item back (a GC
				// or a move to another P can intervene), so retry until it does.
				reused = s.store == st
				got, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					sameResult(t, got, want)
					t.Fatalf("%s after %s/%s (abort %v, attempt %d, storage reused: %v): result differs from a run on fresh storage",
						cfg.Policy, dirtyCfg.Name, dirtyCfg.Policy, abort, attempt, reused)
				}
			}
			if !reused && !raceEnabled {
				t.Fatalf("%s after %s/%s (abort %v): no attempt reused the dirtied storage; the test proved nothing",
					cfg.Policy, dirtyCfg.Name, dirtyCfg.Policy, abort)
			}
		}
	}
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

// TestWarmRunAllocationBound: once the pool holds a finished run's storage
// and the program has its canonical final state, a New + Run pair allocates
// well under the ~330 kB a fresh cache hierarchy alone costs: no cache
// arrays, predictor tables or final-state maps, about 21 kB in all. The
// minimum over several runs discounts a collection that empties the pool
// mid-measurement.
func TestWarmRunAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	p, _ := mibench.Bitcount(400, 15)
	cfg := BigConfig().WithPolicy(PolicyRedsoc)
	newRun := func() {
		s, err := New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	newRun()
	const bound = 32 << 10
	least := uint64(1 << 62)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		newRun()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > bound {
		t.Fatalf("a warm New + Run allocated %d bytes; want at most %d", least, bound)
	}
	t.Logf("warm New + Run: %d bytes", least)
}
