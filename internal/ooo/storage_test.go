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
// abandoned mid-flight by the deadlock guard with live slab entries — or
// whose every scheduler list, ring, FU pool and delay counter has then been
// filled with garbage up to its capacity, produces exactly the Result of a
// run on fresh storage.
func TestPooledStorageIsInvisible(t *testing.T) {
	conv, _ := ml.Conv(24, 16, 23)
	bitcnt, _ := mibench.Bitcount(400, 15)
	// Each case dirties the predictors its measured run reads: the width,
	// last-arrival and branch tables under ReDSOC, the load-delay tracker
	// under loaddelay, at other sizes than the measured run's. The scratch
	// is dirtied on a larger core (rings, pools and slab shrink to the
	// measured core's sizes) and on a smaller one (they grow).
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
		{MediumConfig().WithPolicy(PolicySpecLSQ), SmallConfig().WithPolicy(PolicyRedsoc)},
	} {
		cfg := c.cfg
		// An empty spare list makes New build fresh storage for the
		// reference run.
		drainSpare()
		want := run(t, cfg, bitcnt)

		for _, mode := range []string{"completed", "aborted", "poisoned"} {
			dirtyCfg := c.dirty
			if mode == "aborted" {
				dirtyCfg.MaxCycles = 60
			}
			dirty, err := New(dirtyCfg, conv)
			if err != nil {
				t.Fatal(err)
			}
			st := dirty.store
			if _, err := dirty.Run(); (err != nil) != (mode == "aborted") {
				t.Fatalf("dirtying run (%s): err = %v", mode, err)
			}
			if mode == "poisoned" {
				poison(st)
			}
			// The spare list is last in, first out, so the next New takes
			// the bundle the dirtying run just returned.
			s, err := New(cfg, bitcnt)
			if err != nil {
				t.Fatal(err)
			}
			if s.store != st {
				t.Fatalf("%s after %s/%s (%s): New did not reuse the dirtied storage; the test proves nothing",
					cfg.Policy, dirtyCfg.Name, dirtyCfg.Policy, mode)
			}
			got, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				sameResult(t, got, want)
				t.Fatalf("%s/%s after %s/%s (%s): result differs from a run on fresh storage",
					cfg.Name, cfg.Policy, dirtyCfg.Name, dirtyCfg.Policy, mode)
			}
		}
	}
}

// poison fills every scratch list of a spare bundle up to its capacity, its
// rings, FU pools and waiter lists included, and every delay bin with
// garbage, so only a reset that clears or overwrites each one yields a
// clean run.
func poison(st *storage) {
	sc := &st.scratch
	fill32 := func(x []int32) []int32 {
		x = x[:cap(x)]
		for i := range x {
			x[i] = int32(i%7) + 1
		}
		return x
	}
	sc.slab = sc.slab[:cap(sc.slab)]
	for i := range sc.slab {
		e := &sc.slab[i]
		*e = entry{seq: -9, state: stIssued, refs: 3, broadcastCycle: 1, lastIdx: 1, gp: 2, memDep: 1,
			inReady: true, waiters: append(e.waiters, 1, 2, 3)}
	}
	sc.freeList = fill32(sc.freeList)
	sc.rs, sc.ready, sc.wakeBuf, sc.readyScratch = fill32(sc.rs), fill32(sc.ready), fill32(sc.wakeBuf), fill32(sc.readyScratch)
	for _, r := range []*seqRing{&sc.rob, &sc.lsq, &sc.storeQ} {
		r.buf = fill32(r.buf)
		r.head, r.n = 1, 2
	}
	for k := range sc.reqs {
		sc.reqs[k] = sc.reqs[k][:cap(sc.reqs[k])]
		for i := range sc.reqs[k] {
			sc.reqs[k][i] = issueReq{ei: 1, pos: 2, seq: 3, spec: true}
		}
	}
	sc.arb = sc.arb[:cap(sc.arb)]
	for i := range sc.arb {
		sc.arb[i].Age, sc.arb[i].Spec = 5, true
	}
	sc.granted = sc.granted[:cap(sc.granted)]
	for i := range sc.granted {
		sc.granted[i] = issueReq{ei: 4, seq: 1}
	}
	sc.won = sc.won[:cap(sc.won)]
	for i := range sc.won {
		sc.won[i] = true
	}
	sc.cands = sc.cands[:cap(sc.cands)]
	for i := range sc.cands {
		sc.cands[i] = 2
	}
	for k := range sc.fus {
		b := sc.fus[k].busyUntil
		b = b[:cap(b)]
		for i := range b {
			b[i] = 1 << 40
		}
		sc.fus[k].busyUntil = b
	}
	for i := range st.delays {
		st.delays[i] = 7
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

// warmRunBound bounds what a warm New + Run may allocate: the Simulator,
// its Result and little else. It measured 4,984 bytes for the bound's run
// (bitcnt on Big under ReDSOC; 4,776–4,984 on every core and policy, Go
// 1.24, linux/amd64), and the bound is that plus about 10%, so scheduler
// scratch that regrows from nil in every run fails it.
const warmRunBound = 5500

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
// allocates no cache arrays, predictor tables, scheduler scratch, dense
// delay counter or final-state maps. The minimum over several runs
// discounts allocations of other goroutines.
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
