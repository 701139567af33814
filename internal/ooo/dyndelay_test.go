package ooo

import (
	"reflect"
	"strings"
	"testing"

	"redsoc/internal/isa"
	"redsoc/internal/timing"
	"redsoc/internal/workload"
)

// loadDelayProg is the golden fixture for the loaddelay policy: one static
// load (pinned PC) visited three times, each feeding a dependent ADD. The
// first visit misses to DRAM while the cold tracker assumes an L1 hit — the
// consumer wakes early and its detector replays it. The second visit hits L1
// while the tracker still says DRAM — the consumer merely wakes late. The
// third visit is tracked correctly.
func loadDelayProg() *isa.Program {
	b := workload.NewBuilder("loaddelay-mix")
	b.InitMem(0x9000, 5)
	b.MovImm(isa.R(1), 3)
	for i := 0; i < 3; i++ {
		b.At(0x3000).Load(isa.R(2), isa.R(1), 0x9000)
		b.At(0x3004).Op3(isa.OpADD, isa.R(3), isa.R(2), isa.R(1))
	}
	b.Auto()
	return b.Build()
}

// TestGoldenEventStreamLoadDelay pins the exact stream of loadDelayProg under
// the loaddelay policy on the Small core: every load issue is followed by a
// load-delay event whose bus instant (the tracked-delay CI) diverges from the
// honest completion exactly on the mispredicted visits, and the first ADD
// carries the consumer-side violation the under-tracked delay provokes.
// Regenerate deliberately (run with -v and copy the reported stream) when the
// event layer or scheduler changes.
func TestGoldenEventStreamLoadDelay(t *testing.T) {
	_, got := runObserved(t, SmallConfig().WithPolicy(PolicyLoadDelay), loadDelayProg())
	if got != goldenLoadDelayStream {
		t.Errorf("event stream drifted from the golden sequence.\ngot:\n%s\nwant:\n%s", got, goldenLoadDelayStream)
	}
}

// specLSQProg is the golden fixture for the speclsq policy: a store whose
// data hangs behind a multi-cycle MUL, and a same-address load dispatched
// right after it. The load's speculative LSQ bet fires before the store has
// executed (a misallocation squash), and its post-squash reissue forwards
// from the store's queue entry at LSQ-read latency.
func specLSQProg() *isa.Program {
	b := workload.NewBuilder("speclsq-mix")
	b.InitMem(0x8100, 0x22)
	b.MovImm(isa.R(1), 9)
	b.MovImm(isa.R(2), 1)
	b.Op3(isa.OpMUL, isa.R(3), isa.R(1), isa.R(1))
	b.Store(isa.R(3), isa.R(2), 0x8100)
	b.Load(isa.R(4), isa.R(2), 0x8100)
	b.Op3(isa.OpADD, isa.R(5), isa.R(4), isa.R(1))
	b.Auto()
	return b.Build()
}

// TestGoldenEventStreamSpecLSQ pins the exact stream of specLSQProg under the
// speclsq policy on the Small core: the load's first grant squashes as an LSQ
// misallocation (lsq-squash naming the store), and its reissue carries the
// lsq-forward annotation. Regenerate deliberately when the event layer or
// scheduler changes.
func TestGoldenEventStreamSpecLSQ(t *testing.T) {
	_, got := runObserved(t, SmallConfig().WithPolicy(PolicySpecLSQ), specLSQProg())
	if got != goldenSpecLSQStream {
		t.Errorf("event stream drifted from the golden sequence.\ngot:\n%s\nwant:\n%s", got, goldenSpecLSQStream)
	}
}

// TestLoadDelayTracksAndRecovers checks the tracker's interaction with the
// cache hierarchy end to end: the cold first visit mispredicts (DRAM miss vs
// the assumed L1 hit) and must be recovered by the consumer-side detector,
// later visits train toward the observed delay, and the architectural state
// matches the baseline exactly.
func TestLoadDelayTracksAndRecovers(t *testing.T) {
	prog := loadDelayProg()
	cfg := SmallConfig()
	base, err := Run(cfg.WithPolicy(PolicyBaseline), prog)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := Run(cfg.WithPolicy(PolicyLoadDelay), prog)
	if err != nil {
		t.Fatal(err)
	}
	if !ld.ArchEqual(base) {
		t.Fatal("loaddelay diverged architecturally from baseline")
	}
	if ld.LoadDelayPredicts != 3 {
		t.Fatalf("LoadDelayPredicts = %d, want 3 (one per load visit)", ld.LoadDelayPredicts)
	}
	// Visit 1: cold tracker says L1, DRAM answers. Visit 2: tracker says
	// DRAM, L1 answers. Visit 3: tracked correctly.
	if ld.LoadDelayMispredicts != 2 {
		t.Fatalf("LoadDelayMispredicts = %d, want 2", ld.LoadDelayMispredicts)
	}
	if ld.TimingViolations == 0 {
		t.Fatal("the under-tracked first visit must trip the consumer-side detector")
	}
	if base.TimingViolations != 0 {
		t.Fatal("baseline run must be violation-free (fixture assumption)")
	}
	if st := ld.LoadDelay; st.Lookups != 3 || st.Mispredictions != 2 {
		t.Fatalf("tracker stats %+v, want 3 lookups / 2 mispredictions", st)
	}
}

// TestSpecLSQForwardsAndSquashes checks the speculative LSQ policy end to
// end on the golden fixture: exactly one misallocation squash (the validated
// bit bounds wasted grants to one per load), at least one LSQ-read forward,
// and architectural equality with the baseline.
func TestSpecLSQForwardsAndSquashes(t *testing.T) {
	prog := specLSQProg()
	cfg := SmallConfig()
	base, err := Run(cfg.WithPolicy(PolicyBaseline), prog)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := Run(cfg.WithPolicy(PolicySpecLSQ), prog)
	if err != nil {
		t.Fatal(err)
	}
	if !sl.ArchEqual(base) {
		t.Fatal("speclsq diverged architecturally from baseline")
	}
	if sl.LSQMisallocations != 1 {
		t.Fatalf("LSQMisallocations = %d, want exactly 1 (validated bounds the bet)", sl.LSQMisallocations)
	}
	if sl.LSQSpecForwards != 1 {
		t.Fatalf("LSQSpecForwards = %d, want 1", sl.LSQSpecForwards)
	}
	if base.LSQMisallocations != 0 || base.LSQSpecForwards != 0 {
		t.Fatal("baseline must not engage the speculative LSQ machinery")
	}
}

// TestSpecLSQForwardsFromCommittedStore pins the arena-refcount tie-in: a
// forwardable load arriving long after its store committed still reads the
// pinned queue entry at LSQ-read latency (the memDep link holds the slab
// entry's refcount until the load retires).
func TestSpecLSQForwardsFromCommittedStore(t *testing.T) {
	b := workload.NewBuilder("speclsq-committed")
	b.InitMem(0x8200, 7)
	b.MovImm(isa.R(1), 2)
	b.Store(isa.R(1), isa.R(1), 0x8200)
	// A long DIV chain retires the store well before the load dispatches.
	for i := 0; i < 6; i++ {
		b.Op3(isa.OpDIV, isa.R(3), isa.R(3), isa.R(1))
	}
	b.Load(isa.R(4), isa.R(1), 0x8200)
	b.Auto()
	prog := b.Build()

	base, err := Run(SmallConfig().WithPolicy(PolicyBaseline), prog)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := Run(SmallConfig().WithPolicy(PolicySpecLSQ), prog)
	if err != nil {
		t.Fatal(err)
	}
	if !sl.ArchEqual(base) {
		t.Fatal("speclsq diverged architecturally from baseline")
	}
	if sl.LSQSpecForwards != 1 {
		t.Fatalf("LSQSpecForwards = %d, want 1 (committed-store forward)", sl.LSQSpecForwards)
	}
	if sl.LSQMisallocations != 0 {
		t.Fatalf("LSQMisallocations = %d, want 0 (store executed long ago)", sl.LSQMisallocations)
	}
	if got := base.Mix.MemHL + base.Mix.MemLL - sl.Mix.MemHL - sl.Mix.MemLL; got != 0 {
		t.Fatalf("memory-op classification drifted by %d", got)
	}
}

// TestSpecLSQPartialOverlapWaitsForCommit checks memory-read correctness on
// the path speculation must NOT touch: a load only partially covered by an
// in-flight store (non-forwardable overlap) still waits for the store's
// commit under speclsq, and reads the committed bytes.
func TestSpecLSQPartialOverlapWaitsForCommit(t *testing.T) {
	b := workload.NewBuilder("speclsq-partial")
	b.InitMem128(0x8300, 0xAA, 0xBB)
	b.MovImm(isa.R(1), 1)
	b.Store(isa.R(1), isa.R(1), 0x8308) // 64-bit store into the upper word
	b.VecLoad(isa.V(1), isa.R(1), 0x8300)
	b.Auto()
	prog := b.Build()

	base, err := Run(SmallConfig().WithPolicy(PolicyBaseline), prog)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := Run(SmallConfig().WithPolicy(PolicySpecLSQ), prog)
	if err != nil {
		t.Fatal(err)
	}
	if !sl.ArchEqual(base) {
		t.Fatal("speclsq diverged architecturally from baseline on a partial overlap")
	}
	if sl.LSQSpecForwards != 0 || sl.LSQMisallocations != 0 {
		t.Fatalf("partial overlap must not speculate: forwards %d, misallocations %d",
			sl.LSQSpecForwards, sl.LSQMisallocations)
	}
}

// TestTrainLastArrivalUsesTrueArrival is the regression test for the latent
// static-instant assumption the dynamic-delay policies flushed out: the
// last-arrival trainer scored candidates by the producers' broadcast
// estimates (estComp), which LUT-static policies keep equal to the true
// completion — but a loaddelay producer broadcasts a tracked guess, and a
// violation replay moves the true instant after the broadcast. The trainer
// must score by trueComp, the instant the value was actually stable.
func TestTrainLastArrivalUsesTrueArrival(t *testing.T) {
	const pc = uint64(0x80)
	s := mkSim(t, SmallConfig().WithPolicy(PolicyLoadDelay))
	prod := func(est, tru timing.Ticks) int32 {
		i := s.alloc()
		p := s.ent(i)
		p.state = stIssued
		p.broadcastCycle = 3
		p.estComp = est
		p.trueComp = tru
		return i
	}
	// p0 broadcasts an over-tracked CI (estComp 30) but its value was truly
	// stable at 10; p1's broadcast is honest at 20. The operand that arrived
	// last is p1 — scoring by the broadcast would call p0 last and mark the
	// tracked slot correct.
	p0 := prod(30, 10)
	p1 := prod(20, 20)
	ei := s.alloc()
	e := s.ent(ei)
	e.pc = pc
	e.multiSrc = true
	e.nsrc = 2
	e.srcs[0] = srcRef{prod: p0}
	e.srcs[1] = srcRef{prod: p1}
	e.lastIdx = 0 // tracking p0

	s.trainLastArrival(e)
	if st := s.lastPred.Stats(); st.Mispredictions != 1 {
		t.Fatalf("true-arrival scoring must count one mispredict, got %+v", st)
	}
	if got := s.lastPred.Predict(pc); got != 1 {
		t.Fatalf("table must move toward the truly-last slot 1, got %d", got)
	}
}

// TestDynDelayEventKindsGated checks that the per-policy event kinds appear
// exactly under their policy: load-delay events only under loaddelay,
// lsq-forward/lsq-squash only under speclsq, and none of the three under the
// static policies (whose streams are pinned by the existing goldens).
func TestDynDelayEventKindsGated(t *testing.T) {
	count := func(stream string, name string) int {
		return strings.Count(stream, " "+name+" ")
	}
	for _, tc := range []struct {
		policy Policy
		prog   *isa.Program
	}{
		{PolicyBaseline, loadDelayProg()},
		{PolicyRedsoc, loadDelayProg()},
		{PolicyMOS, specLSQProg()},
	} {
		_, stream := runObserved(t, SmallConfig().WithPolicy(tc.policy), tc.prog)
		for _, name := range []string{"load-delay", "lsq-forward", "lsq-squash"} {
			if n := count(stream, name); n != 0 {
				t.Errorf("%v stream contains %d %s events", tc.policy, n, name)
			}
		}
	}
	_, ld := runObserved(t, SmallConfig().WithPolicy(PolicyLoadDelay), loadDelayProg())
	if n := count(ld, "load-delay"); n != 3 {
		t.Errorf("loaddelay stream has %d load-delay events, want 3", n)
	}
	if n := count(ld, "lsq-forward") + count(ld, "lsq-squash"); n != 0 {
		t.Errorf("loaddelay stream leaks %d speclsq events", n)
	}
	_, sl := runObserved(t, SmallConfig().WithPolicy(PolicySpecLSQ), specLSQProg())
	if count(sl, "lsq-forward") != 1 || count(sl, "lsq-squash") != 1 {
		t.Errorf("speclsq stream: want exactly one lsq-forward and one lsq-squash:\n%s", sl)
	}
	if n := count(sl, "load-delay"); n != 0 {
		t.Errorf("speclsq stream leaks %d load-delay events", n)
	}
}

// TestPolicyParseRoundTrip pins the flag-name surface the CLIs share: every
// row of the policy table round-trips through its name, and the sentinel
// past the last row is no policy.
func TestPolicyParseRoundTrip(t *testing.T) {
	names := PolicyNames()
	want := []string{"baseline", "redsoc", "mos", "loaddelay", "speclsq"}
	if len(names) != len(want) || len(policies) != len(want) {
		t.Fatalf("PolicyNames() = %v over %d table rows, want %v", names, len(policies), want)
	}
	for i, n := range want {
		if names[i] != n || policies[i].name != n {
			t.Fatalf("PolicyNames()[%d] = %q, table row %q, want %q", i, names[i], policies[i].name, n)
		}
	}
	for i, row := range policies {
		p, err := ParsePolicy(row.name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", row.name, err)
		}
		if p != Policy(i) || p.String() != row.name {
			t.Fatalf("round trip %q -> %d -> %q, want row %d", row.name, p, p.String(), i)
		}
		if err := SmallConfig().WithPolicy(p).Validate(); err != nil {
			t.Fatalf("%s: Validate: %v", p, err)
		}
	}
	if _, err := ParsePolicy("ts"); err == nil {
		t.Fatal("ts is a harness comparator, not an ooo policy; ParsePolicy must reject it")
	}
	if _, err := ParsePolicy(NumPolicies.String()); err == nil {
		t.Fatalf("ParsePolicy accepted the sentinel's name %q", NumPolicies.String())
	}
	bad := SmallConfig()
	bad.Policy = NumPolicies
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted Policy == NumPolicies")
	}
	if _, err := New(bad, longChain(isa.OpADD, 4)); err == nil {
		t.Fatal("New accepted Policy == NumPolicies")
	}
}

// TestParseCore pins the core-name surface the CLIs and the service share:
// any letter case resolves to the Table I preset, and an unknown name is an
// error that lists the valid ones.
func TestParseCore(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Config
	}{
		{"big", BigConfig()}, {"Big", BigConfig()}, {"BIG", BigConfig()},
		{"medium", MediumConfig()}, {"Medium", MediumConfig()},
		{"small", SmallConfig()}, {"sMaLl", SmallConfig()},
	} {
		got, err := ParseCore(tc.name)
		if err != nil {
			t.Fatalf("ParseCore(%q): %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("ParseCore(%q) = %s, want %s", tc.name, got.Name, tc.want.Name)
		}
	}
	for _, bad := range []string{"", "huge", "big "} {
		_, err := ParseCore(bad)
		if err == nil {
			t.Fatalf("ParseCore(%q) accepted an unknown core", bad)
		}
		for _, valid := range []string{"big", "medium", "small"} {
			if !strings.Contains(err.Error(), valid) {
				t.Fatalf("ParseCore(%q) error %q does not list %q", bad, err, valid)
			}
		}
	}
}

// obs-stream goldens. Regenerate by running the matching test with -v and
// copying the reported "got" stream (quoted form: commit lines carry a
// trailing space).
const goldenLoadDelayStream = "c0     dispatch     seq=0    MOV  pc=0x1000 lut=3 ex=4t\n" +
	"c0     dispatch     seq=1    LDR  pc=0x3000 lut=0 ex=8t\n" +
	"c0     dispatch     seq=2    ADD  pc=0x3004 lut=11 ex=7t\n" +
	"c0     wakeup       seq=0    MOV  src=-1\n" +
	"c0     grant        seq=0    MOV  ALU\n" +
	"c0     issue        seq=0    MOV  ALU/0 [1.0..2.0)\n" +
	"c1     dispatch     seq=3    LDR  pc=0x3000 lut=0 ex=8t\n" +
	"c1     dispatch     seq=4    ADD  pc=0x3004 lut=11 ex=7t\n" +
	"c1     dispatch     seq=5    LDR  pc=0x3000 lut=0 ex=8t\n" +
	"c1     wakeup       seq=1    LDR  src=0\n" +
	"c1     wakeup       seq=3    LDR  src=0\n" +
	"c1     wakeup       seq=5    LDR  src=0\n" +
	"c1     grant        seq=1    LDR  MEM\n" +
	"c1     grant        seq=3    LDR  MEM\n" +
	"c1     deny         seq=5    LDR  MEM\n" +
	"c1     issue        seq=1    LDR  MEM/0 [2.0..92.0)\n" +
	"c1     load-delay   seq=1    LDR  tracked=2cyc bus=4.0 true=92.0\n" +
	"c1     issue        seq=3    LDR  MEM/1 [2.0..4.0) hold2\n" +
	"c1     load-delay   seq=3    LDR  tracked=90cyc bus=92.0 true=4.0\n" +
	"c2     commit       seq=0    MOV \n" +
	"c2     dispatch     seq=6    ADD  pc=0x3004 lut=11 ex=7t\n" +
	"c2     grant        seq=5    LDR  MEM\n" +
	"c2     issue        seq=5    LDR  MEM/0 [3.0..5.0) hold2\n" +
	"c2     load-delay   seq=5    LDR  tracked=2cyc bus=5.0 true=5.0\n" +
	"c3     wakeup       seq=2    ADD  src=1\n" +
	"c3     grant        seq=2    ADD  ALU\n" +
	"c3     violation    seq=2    ADD  consumer\n" +
	"c3     issue        seq=2    ADD  ALU/0 [92.0..93.0)\n" +
	"c4     wakeup       seq=6    ADD  src=5\n" +
	"c4     grant        seq=6    ADD  ALU\n" +
	"c4     issue        seq=6    ADD  ALU/0 [5.0..6.0)\n" +
	"c91    wakeup       seq=4    ADD  src=3\n" +
	"c91    grant        seq=4    ADD  ALU\n" +
	"c91    issue        seq=4    ADD  ALU/0 [92.0..93.0)\n" +
	"c92    commit       seq=1    LDR \n" +
	"c93    commit       seq=2    ADD \n" +
	"c93    commit       seq=3    LDR \n" +
	"c93    commit       seq=4    ADD \n" +
	"c94    commit       seq=5    LDR \n" +
	"c94    commit       seq=6    ADD \n"

const goldenSpecLSQStream = "c0     dispatch     seq=0    MOV  pc=0x1000 lut=3 ex=4t\n" +
	"c0     dispatch     seq=1    MOV  pc=0x1004 lut=3 ex=4t\n" +
	"c0     dispatch     seq=2    MUL  pc=0x1008 lut=0 ex=8t\n" +
	"c0     wakeup       seq=0    MOV  src=-1\n" +
	"c0     wakeup       seq=1    MOV  src=-1\n" +
	"c0     grant        seq=0    MOV  ALU\n" +
	"c0     grant        seq=1    MOV  ALU\n" +
	"c0     issue        seq=0    MOV  ALU/0 [1.0..2.0)\n" +
	"c0     issue        seq=1    MOV  ALU/1 [1.0..2.0)\n" +
	"c1     dispatch     seq=3    STR  pc=0x100c lut=0 ex=8t\n" +
	"c1     dispatch     seq=4    LDR  pc=0x1010 lut=0 ex=8t\n" +
	"c1     dispatch     seq=5    ADD  pc=0x1014 lut=11 ex=7t\n" +
	"c1     wakeup       seq=2    MUL  src=0\n" +
	"c1     wakeup       seq=4    LDR  src=1\n" +
	"c1     grant        seq=2    MUL  ALU\n" +
	"c1     grant        seq=4    LDR  MEM\n" +
	"c1     issue        seq=2    MUL  ALU/0 [2.0..5.0)\n" +
	"c1     lsq-squash   seq=4    LDR  st=3 misalloc\n" +
	"c2     commit       seq=0    MOV \n" +
	"c2     commit       seq=1    MOV \n" +
	"c4     wakeup       seq=3    STR  src=1\n" +
	"c4     grant        seq=3    STR  MEM\n" +
	"c4     issue        seq=3    STR  MEM/0 [5.0..6.0)\n" +
	"c5     commit       seq=2    MUL \n" +
	"c5     grant        seq=4    LDR  MEM\n" +
	"c5     issue        seq=4    LDR  MEM/0 [6.0..7.0)\n" +
	"c5     lsq-forward  seq=4    LDR  st=3 lsq-read\n" +
	"c6     commit       seq=3    STR \n" +
	"c6     wakeup       seq=5    ADD  src=4\n" +
	"c6     grant        seq=5    ADD  ALU\n" +
	"c6     issue        seq=5    ADD  ALU/0 [7.0..8.0)\n" +
	"c7     commit       seq=4    LDR \n" +
	"c8     commit       seq=5    ADD \n"
