package chaos_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"redsoc/internal/cellstore"
	"redsoc/internal/chaos"
	"redsoc/internal/harness"
	"redsoc/internal/ooo"
)

// quickOptions is the -quick smoke campaign: one benchmark per suite on the
// medium core, two fault rates, three seeds — exactly what CI runs.
func quickOptions(workers int) chaos.Options {
	return chaos.Options{
		Core:       ooo.MediumConfig(),
		Seeds:      3,
		Rates:      []float64{0.01, 0.1},
		Benchmarks: chaos.PickOnePerClass(harness.Benchmarks(harness.Quick)),
		Workers:    workers,
	}
}

// TestCampaignWorkerCountInvariance is the chaos golden-equivalence check:
// the seeded -quick campaign must render a byte-identical report at one
// worker (the serial order), several workers and the NumCPU default. Every
// injector draw comes from a task-local seeded RNG, so this is exactly the
// "parallel equals serial" obligation.
func TestCampaignWorkerCountInvariance(t *testing.T) {
	serial, err := chaos.RunCampaign(context.Background(), quickOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if serial.ArchFailures != 0 {
		t.Fatalf("%d faulted runs diverged architecturally in the serial reference", serial.ArchFailures)
	}
	want := serial.Table.String()
	if !strings.Contains(want, "fault campaign on Medium (3 seeds per cell)") {
		t.Fatalf("unexpected report header:\n%s", want)
	}
	for _, workers := range []int{4, 0} {
		par, err := chaos.RunCampaign(context.Background(), quickOptions(workers))
		if err != nil {
			t.Fatal(err)
		}
		if got := par.Table.String(); got != want {
			t.Fatalf("workers=%d report diverges from workers=1:\n--- parallel ---\n%s--- serial ---\n%s", workers, got, want)
		}
		if par.ArchFailures != serial.ArchFailures {
			t.Fatalf("workers=%d: arch failures %d vs serial %d", workers, par.ArchFailures, serial.ArchFailures)
		}
	}
}

// TestCampaignOptionValidation covers the degenerate configurations.
func TestCampaignOptionValidation(t *testing.T) {
	bs := chaos.PickOnePerClass(harness.Benchmarks(harness.Quick))
	for name, opts := range map[string]chaos.Options{
		"no seeds": {Core: ooo.SmallConfig(), Rates: []float64{0.1}, Benchmarks: bs},
		"no rates": {Core: ooo.SmallConfig(), Seeds: 1, Benchmarks: bs},
		"no bench": {Core: ooo.SmallConfig(), Seeds: 1, Rates: []float64{0.1}},
	} {
		if _, err := chaos.RunCampaign(context.Background(), opts); err == nil {
			t.Errorf("%s: campaign must refuse to run", name)
		}
	}
}

// TestPickOnePerClass keeps the smoke set one-per-suite in suite order.
func TestPickOnePerClass(t *testing.T) {
	got := chaos.PickOnePerClass(harness.Benchmarks(harness.Quick))
	if len(got) != 3 {
		t.Fatalf("smoke set = %d benchmarks, want one per suite", len(got))
	}
	for i, class := range harness.Classes() {
		if got[i].Class != class {
			t.Fatalf("smoke set order %v, want suite order", got)
		}
	}
}

// TestChaosJournalResumeEquivalence runs the smoke campaign fresh into a
// journal, then resumes it: the rendered report must be byte-identical and
// every faulted cell must be a journal hit (baselines are recomputed — they
// are deliberately never journaled).
func TestChaosJournalResumeEquivalence(t *testing.T) {
	dir := t.TempDir()
	fresh, err := cellstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOptions(2)
	opts.Journal = fresh
	r1, err := chaos.RunCampaign(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	nCells := len(opts.Benchmarks) * len(opts.Rates) * opts.Seeds
	if st := fresh.Stats(); int(st.Writes) != nCells {
		t.Fatalf("fresh stats = %+v, want %d cell writes", st, nCells)
	}
	fresh.Close()

	resumed, err := cellstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	opts = quickOptions(4) // different worker count on purpose
	opts.Journal = resumed
	opts.Resume = true
	r2, err := chaos.RunCampaign(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r2.Table.String(), r1.Table.String(); got != want {
		t.Fatalf("resumed report diverges:\n--- fresh ---\n%s--- resumed ---\n%s", want, got)
	}
	if r2.ArchFailures != r1.ArchFailures {
		t.Fatalf("resumed arch failures %d vs fresh %d", r2.ArchFailures, r1.ArchFailures)
	}
	if st := resumed.Stats(); int(st.Hits) != nCells || st.Misses != 0 {
		t.Fatalf("resume stats = %+v, want all %d faulted cells served from journal", st, nCells)
	}
}

// TestJournalKeyPinned pins the content-addressed key of one chaos cell
// (quick bitcnt on Big, rate 0.01, seed 1) to a literal value: every
// journal and serve cache on disk is indexed by it, so a refactor that
// silently changes the fingerprint would orphan all of them. A deliberate
// change bumps the payload version and updates the literal.
func TestJournalKeyPinned(t *testing.T) {
	b, err := harness.FindBenchmark(harness.Benchmarks(harness.Quick), "bitcnt")
	if err != nil {
		t.Fatal(err)
	}
	store, err := cellstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var got []string
	_, err = chaos.RunCampaign(context.Background(), chaos.Options{
		Core: ooo.BigConfig(), Seeds: 1, Rates: []float64{0.01},
		Benchmarks: []harness.Benchmark{b}, Workers: 1, Journal: store,
		OnCell: func(ev harness.CellEvent) { got = append(got, ev.Kind+" "+ev.Label+" "+string(ev.Key)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "chaos-cell bitcnt rate=0.01 seed=1 7c6dd412c2fdd6b700cee0d6678c93589c286edf07fa77edbf718865c129a561"
	if len(got) != 1 || got[0] != want {
		t.Fatalf("chaos cell keys = %q, want [%q]", got, want)
	}
}

// TestBaselinesHoldOracleState: ArchOK compares each faulted run with its
// benchmark's fault-free baseline run, and ooo.Run gives every fault-free
// run its program's final state, the architectural interpreter's, so the
// check is one against the oracle. Over the -quick campaign's coordinates
// the baseline and every recovered faulted run hold ooo.FinalState's very
// maps.
func TestBaselinesHoldOracleState(t *testing.T) {
	opts := quickOptions(1)
	cfg := opts.Core.WithPolicy(ooo.PolicyRedsoc)
	for _, b := range opts.Benchmarks {
		regs, mem, _ := ooo.FinalState(b.Prog)
		runs := []ooo.Config{opts.Core.WithPolicy(ooo.PolicyBaseline)}
		for _, rate := range opts.Rates {
			for seed := 1; seed <= opts.Seeds; seed++ {
				runs = append(runs, cfg.WithFaults(rate, int64(seed)))
			}
		}
		for _, c := range runs {
			r, err := ooo.Run(c, b.Prog)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.ValueOf(r.FinalMem).UnsafePointer() != reflect.ValueOf(mem).UnsafePointer() ||
				reflect.ValueOf(r.FinalRegs).UnsafePointer() != reflect.ValueOf(regs).UnsafePointer() {
				t.Errorf("%s at fault rate %g seed %d: holds its own architectural state, want the program's final state",
					b.Name, c.Fault.EstimateRate, c.Fault.Seed)
			}
		}
	}
}
