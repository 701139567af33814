package redsoc

import (
	"context"
	"testing"

	"redsoc/internal/harness"
	"redsoc/internal/ooo"
)

func chainProgram(n int) *Program {
	p := NewProgram("chain")
	p.MovImm(1, 0x55)
	p.MovImm(2, 0x33)
	p.At(0x2000)
	for i := 0; i < n; i++ {
		p.Xor(1, 1, 2)
	}
	return p
}

func TestRunBaselineAndRedsoc(t *testing.T) {
	p := chainProgram(200)
	base, err := Run(Config{Core: Big}, p)
	if err != nil {
		t.Fatal(err)
	}
	red, err := Run(Config{Core: Big, Scheduler: ReDSOC}, p)
	if err != nil {
		t.Fatal(err)
	}
	if base.Instructions != red.Instructions {
		t.Fatalf("instruction counts differ: %d vs %d", base.Instructions, red.Instructions)
	}
	if red.Cycles >= base.Cycles {
		t.Fatalf("ReDSOC must beat baseline on a logic chain: %d vs %d", red.Cycles, base.Cycles)
	}
	if red.RecycledOps == 0 {
		t.Fatal("no recycling on a dependent chain")
	}
	if red.IPC() <= base.IPC() {
		t.Fatal("IPC must improve")
	}
}

func TestCompareSchedulers(t *testing.T) {
	cmp, err := CompareSchedulers(Medium, chainProgram(200))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.ReDSOCSpeedup() <= 1.2 {
		t.Fatalf("ReDSOC speedup = %.2f", cmp.ReDSOCSpeedup())
	}
	if cmp.FusionSpeedup() <= 1.0 {
		t.Fatalf("fusion must fuse logic pairs, speedup = %.2f", cmp.FusionSpeedup())
	}
	if cmp.TimingSpeculationSpeedup < 1.0 || cmp.TimingSpeculationPeriodPS > 500 {
		t.Fatalf("TS result implausible: %+v", cmp)
	}
	// The dynamic-delay schedulers are architecturally invisible: on a pure
	// ALU chain (no loads, no forwardable stores) neither mechanism can
	// engage, so both must land exactly on baseline.
	if cmp.LoadDelay == nil || cmp.SpecLSQ == nil {
		t.Fatal("dynamic-delay scheduler metrics missing from Comparison")
	}
	if cmp.LoadDelaySpeedup() != 1.0 || cmp.SpecLSQSpeedup() != 1.0 {
		t.Fatalf("loaddelay/speclsq moved a loadless chain: %.4f / %.4f",
			cmp.LoadDelaySpeedup(), cmp.SpecLSQSpeedup())
	}
}

func TestDynamicDelaySchedulerNames(t *testing.T) {
	all := map[Scheduler]string{
		Baseline: "baseline", ReDSOC: "redsoc", OperationFusion: "mos",
		LoadDelayTracking: "loaddelay", SpeculativeLSQ: "speclsq",
	}
	if len(all) != int(ooo.NumPolicies) {
		t.Fatalf("%d Schedulers, but ooo has %d policies", len(all), ooo.NumPolicies)
	}
	for s, want := range all {
		if s.String() != want || ooo.Policy(s).String() != want {
			t.Fatalf("Scheduler(%d).String() = %q, ooo.Policy(%d) = %q, want %q", s, s.String(), s, ooo.Policy(s), want)
		}
		if got := (Config{Scheduler: s}).ooo().Policy; got != ooo.Policy(s) {
			t.Fatalf("Scheduler %s runs as %s", s, got)
		}
	}
	p := chainProgram(50)
	base, err := Run(Config{Core: Small, Scheduler: Baseline}, p)
	if err != nil {
		t.Fatal(err)
	}
	red, err := Run(Config{Core: Small, Scheduler: ReDSOC}, p)
	if err != nil {
		t.Fatal(err)
	}
	if red.Cycles == base.Cycles {
		t.Fatal("premise: ReDSOC must beat the baseline on the chain")
	}
	// An unknown Scheduler still runs, as the baseline.
	for _, s := range []Scheduler{-1, Scheduler(ooo.NumPolicies), 99} {
		m, err := Run(Config{Core: Small, Scheduler: s}, p)
		if err != nil {
			t.Fatalf("Scheduler(%d): %v", s, err)
		}
		if s.String() != "baseline" || m.Cycles != base.Cycles {
			t.Fatalf("Scheduler(%d) = %q ran %d cycles, want baseline's %d", s, s.String(), m.Cycles, base.Cycles)
		}
	}
	// Run must accept the new schedulers directly, not only via Compare.
	for _, s := range []Scheduler{LoadDelayTracking, SpeculativeLSQ} {
		m, err := Run(Config{Core: Small, Scheduler: s}, p)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if m.Cycles != base.Cycles {
			t.Fatalf("%v on a loadless chain: %d cycles, baseline %d", s, m.Cycles, base.Cycles)
		}
	}
}

func TestConfigKnobs(t *testing.T) {
	p := chainProgram(200)
	full, err := Run(Config{Core: Big, Scheduler: ReDSOC}, p)
	if err != nil {
		t.Fatal(err)
	}
	noEGPW, err := Run(Config{Core: Big, Scheduler: ReDSOC, DisableEGPW: true}, p)
	if err != nil {
		t.Fatal(err)
	}
	if noEGPW.Cycles <= full.Cycles {
		t.Fatal("disabling EGPW must hurt a dependent chain")
	}
	coarse, err := Run(Config{Core: Big, Scheduler: ReDSOC, PrecisionBits: 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Cycles < full.Cycles {
		t.Fatal("1-bit slack precision must not beat 3-bit")
	}
	tight, err := Run(Config{Core: Big, Scheduler: ReDSOC, SlackThreshold: 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	if tight.RecycledOps >= full.RecycledOps {
		t.Fatal("a tiny slack threshold must suppress recycling")
	}
}

func TestRunBenchmarkByName(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size benchmark")
	}
	m, err := RunBenchmark(Config{Core: Small}, "crc")
	if err != nil {
		t.Fatal(err)
	}
	if m.Instructions == 0 || m.IPC() <= 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if _, err := RunBenchmark(Config{}, "nope"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestBenchmarksList(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 15 {
		t.Fatalf("expected 15 benchmarks, got %d", len(bs))
	}
	suites := map[string]int{}
	for _, b := range bs {
		suites[b.Suite]++
		if b.Program().Len() == 0 {
			t.Fatalf("%s has an empty program", b.Name)
		}
	}
	if suites["SPEC"] != 5 || suites["MiBench"] != 5 || suites["ML"] != 5 {
		t.Fatalf("suite counts = %v", suites)
	}
}

func TestVectorProgramAPI(t *testing.T) {
	p := NewProgram("vec")
	p.InitMem(0x100, 0x01020304)
	p.VecLoad(1, 0, 0x100)
	p.VecAdd(16, 2, 1, 1)
	p.VecMax(16, 2, 2, 1)
	p.VecMulAcc(16, 2, 1, 1, 2)
	p.VecStore(2, 0, 0x200)
	p.Load(3, 0, 0x200)
	if _, err := Run(Config{Core: Small, Scheduler: ReDSOC}, p); err != nil {
		t.Fatal(err)
	}
}

func TestProgramReuseAfterRunPanics(t *testing.T) {
	p := chainProgram(10)
	if _, err := Run(Config{}, p); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("adding instructions after a run must panic")
		}
	}()
	p.Add(1, 1, 1)
}

func TestLanePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid lane width must panic")
		}
	}()
	NewProgram("bad").VecAdd(12, 1, 1, 1)
}

// TestQuickGridSmoke runs the Quick harness end to end (no threshold sweep)
// and sanity-checks the headline shape: MiBench gains the most, Big gains at
// least as much as Small, and every scheduler agrees architecturally (the
// harness verifies reference outputs internally).
func TestQuickGridSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("grid run")
	}
	g, err := harness.Run(context.Background(), harness.Benchmarks(harness.Quick), harness.Cores(), harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mibBig := g.ClassMeanSpeedup(harness.ClassMiB, "Big")
	specBig := g.ClassMeanSpeedup(harness.ClassSPEC, "Big")
	if mibBig < specBig {
		t.Errorf("MiBench mean (%+.1f%%) must exceed SPEC mean (%+.1f%%) on Big", mibBig, specBig)
	}
	if mibBig < 8 {
		t.Errorf("MiBench Big mean = %+.1f%%, want >= 8%%", mibBig)
	}
	mibSmall := g.ClassMeanSpeedup(harness.ClassMiB, "Small")
	if mibBig < mibSmall {
		t.Errorf("Big (%+.1f%%) must gain at least as much as Small (%+.1f%%)", mibBig, mibSmall)
	}
}
