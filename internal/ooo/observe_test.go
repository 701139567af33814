package ooo

import (
	"strings"
	"testing"

	"redsoc/internal/isa"
	"redsoc/internal/obs"
	"redsoc/internal/workload"
)

// runObserved simulates prog with a capturing buffer attached and returns
// the rendered event stream.
func runObserved(t *testing.T, cfg Config, prog *isa.Program) (*obs.Buffer, string) {
	t.Helper()
	sim, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	buf := &obs.Buffer{}
	sim.SetObserver(buf)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	return buf, obs.FormatStream(buf.Events(), sim.Clock().TicksPerCycle())
}

// TestGoldenEventStream pins the exact ordered event sequence of a
// hand-written dependency chain. The stream is part of the observability
// contract: scheduler changes that reorder or reshape events must update
// this golden deliberately.
func TestGoldenEventStream(t *testing.T) {
	_, got := runObserved(t, SmallConfig().WithPolicy(PolicyRedsoc), longChain(isa.OpEOR, 4))
	want := goldenChainStream
	if got != want {
		t.Errorf("event stream drifted from the golden sequence.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// mosMixProg is the golden-fixture trace for the mechanisms beyond a plain
// chain: a fusable single-cycle producer/consumer pair (MOS executes the
// consumer in its producer's cycle), a three-producer MLA, and a store
// feeding a load at the same address (memory-dependence wakeup with
// forwarding).
func mosMixProg() *isa.Program {
	b := workload.NewBuilder("mos-mix")
	b.InitMem(0x8000, 0x1111)
	b.MovImm(isa.R(1), 6)
	b.MovImm(isa.R(2), 7)
	// Three iterations at pinned PCs: the first trains the width predictor,
	// later ones make the producer/consumer pair narrow enough to fuse.
	for i := 0; i < 3; i++ {
		b.At(0x2000).Op3(isa.OpEOR, isa.R(3), isa.R(1), isa.R(2)) // producer
		b.At(0x2004).Op3(isa.OpADD, isa.R(4), isa.R(3), isa.R(1)) // fusable consumer
		b.At(0x2008).MulAcc(isa.R(5), isa.R(1), isa.R(2), isa.R(4))
		b.At(0x200c).Store(isa.R(5), isa.R(2), 0x8000)
		b.At(0x2010).Load(isa.R(6), isa.R(2), 0x8000)
		b.At(0x2014).Op3(isa.OpEOR, isa.R(1), isa.R(6), isa.R(3))
	}
	b.Auto()
	return b.Build()
}

// TestGoldenEventStreamMOSMix pins the exact stream of mosMixProg under MOS
// on the Small core: once the width predictor trains, the head EOR of an
// iteration carries the fused annotation (it executes in the previous
// iteration's tail-EOR cycle), the MLA's wakeup tracks a multi-producer
// operand, and the load's wakeup waits on the store it forwards from.
// Regenerate deliberately (run with -v and copy the reported stream) when the
// event layer or scheduler changes.
func TestGoldenEventStreamMOSMix(t *testing.T) {
	_, got := runObserved(t, SmallConfig().WithPolicy(PolicyMOS), mosMixProg())
	if got != goldenMOSMixStream {
		t.Errorf("event stream drifted from the golden sequence.\ngot:\n%s\nwant:\n%s", got, goldenMOSMixStream)
	}
}

// TestEventStreamDeterminism runs the same workload twice and demands
// byte-identical streams.
func TestEventStreamDeterminism(t *testing.T) {
	cfg := BigConfig().WithPolicy(PolicyRedsoc)
	_, a := runObserved(t, cfg, longChain(isa.OpEOR, 64))
	_, b := runObserved(t, cfg, longChain(isa.OpEOR, 64))
	if a != b {
		t.Error("two identical runs produced different event streams")
	}
}

// TestObserverDoesNotPerturbSimulation attaches a sink and checks that every
// counter of the run is identical to an unobserved run — observation must
// never change simulation outcomes.
func TestObserverDoesNotPerturbSimulation(t *testing.T) {
	prog := longChain(isa.OpADD, 48)
	cfg := MediumConfig().WithPolicy(PolicyRedsoc)
	plain, err := Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetObserver(&obs.Buffer{})
	observed, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cycles != observed.Cycles || plain.RecycledOps != observed.RecycledOps ||
		plain.Instructions != observed.Instructions || plain.TagMispredicts != observed.TagMispredicts {
		t.Errorf("observation changed the run: cycles %d vs %d, recycled %d vs %d",
			plain.Cycles, observed.Cycles, plain.RecycledOps, observed.RecycledOps)
	}
}

// TestEventStreamCoversLifecycle checks the per-instruction event protocol
// on a recycling-heavy workload: one dispatch/wakeup/commit per instruction,
// grants precede issues, and recycled issues carry their chain events.
func TestEventStreamCoversLifecycle(t *testing.T) {
	buf, stream := runObserved(t, SmallConfig().WithPolicy(PolicyRedsoc), longChain(isa.OpEOR, 16))
	counts := map[obs.Kind]int{}
	for _, e := range buf.Events() {
		counts[e.Kind]++
	}
	n := 18 // 2 MovImm + 16 EOR
	if counts[obs.KindDispatch] != n || counts[obs.KindCommit] != n {
		t.Errorf("dispatch=%d commit=%d, want %d each", counts[obs.KindDispatch], counts[obs.KindCommit], n)
	}
	if counts[obs.KindWakeup] != n {
		t.Errorf("wakeup=%d, want one per instruction on this contention-free chain", counts[obs.KindWakeup])
	}
	if counts[obs.KindIssue] != counts[obs.KindGrant]-counts[obs.KindCancel] {
		t.Errorf("issue=%d, want grants-cancels = %d-%d", counts[obs.KindIssue], counts[obs.KindGrant], counts[obs.KindCancel])
	}
	if counts[obs.KindRecycle] == 0 {
		t.Error("an EOR chain under ReDSOC must recycle")
	}
	if !strings.Contains(stream, "recycled") || !strings.Contains(stream, "chain=") {
		t.Errorf("stream missing recycling annotations:\n%s", stream)
	}
}

// TestFUTaxonomyMatchesObs pins the correspondence between the scheduler's
// fuKind values and the obs layer's FU constants — Perfetto tracks and
// flight-recorder dumps are labeled through obs.FUName(uint8(fuKind)).
func TestFUTaxonomyMatchesObs(t *testing.T) {
	if uint8(numFUKinds) != obs.NumFUs {
		t.Fatalf("numFUKinds=%d, obs.NumFUs=%d", numFUKinds, obs.NumFUs)
	}
	want := map[fuKind]string{fuALU: "ALU", fuSIMD: "SIMD", fuFP: "FP", fuMEM: "MEM"}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("fuKind(%d).String()=%q, want %q", k, k, name)
		}
	}
	if uint8(fuALU) != obs.FUALU || uint8(fuSIMD) != obs.FUSIMD ||
		uint8(fuFP) != obs.FUFP || uint8(fuMEM) != obs.FUMEM {
		t.Error("fuKind ordering diverged from obs FU constants")
	}
}

// TestFlightRecorderRetainsTail attaches a small ring and checks it holds
// exactly the last events of the run, ending at the final commit.
func TestFlightRecorderRetainsTail(t *testing.T) {
	prog := longChain(isa.OpEOR, 32)
	sim, err := New(SmallConfig().WithPolicy(PolicyRedsoc), prog)
	if err != nil {
		t.Fatal(err)
	}
	ring := sim.AttachFlightRecorder(8)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if ring.Len() != 8 {
		t.Fatalf("ring retained %d events, want 8", ring.Len())
	}
	tail := ring.Tail(8)
	last := tail[len(tail)-1]
	if last.Kind != obs.KindCommit || last.Seq != int64(prog.Len()-1) {
		t.Errorf("last event = %v seq %d, want the final commit (seq %d)", last.Kind, last.Seq, prog.Len()-1)
	}
}

// TestMetricsSnapshotDeterminism checks that Result.Metrics serializes
// byte-identically across two runs and carries the headline counters.
func TestMetricsSnapshotDeterminism(t *testing.T) {
	cfg := BigConfig().WithPolicy(PolicyRedsoc)
	prog := longChain(isa.OpEOR, 64)
	render := func() string {
		r, err := Run(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := obs.WriteJSON(&sb, r.Metrics("chain")); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := render(), render()
	if a != b {
		t.Error("metrics snapshots of identical runs differ")
	}
	for _, key := range []string{`"cycles"`, `"recycled_ops"`, `"egpw_hit_rate"`, `"recycled_op_fraction"`, `"ipc"`} {
		if !strings.Contains(a, key) {
			t.Errorf("metrics snapshot missing %s:\n%s", key, a)
		}
	}
}

// goldenChainStream is the pinned stream for longChain(EOR, 4) on the Small
// core under ReDSOC (regenerate deliberately when the scheduler or event
// format changes: run this test with -v and copy the reported stream).
const goldenChainStream = `c0     dispatch     seq=0    MOV  pc=0x1000 lut=3 ex=4t
c0     dispatch     seq=1    MOV  pc=0x1004 lut=3 ex=4t
c0     dispatch     seq=2    EOR  pc=0x2000 lut=3 ex=4t
c0     wakeup       seq=0    MOV  src=-1
c0     wakeup       seq=1    MOV  src=-1
c0     grant        seq=0    MOV  ALU
c0     grant        seq=1    MOV  ALU
c0     issue        seq=0    MOV  ALU/0 [1.0..1.4)
c0     issue        seq=1    MOV  ALU/1 [1.0..1.4)
c1     dispatch     seq=3    EOR  pc=0x2000 lut=3 ex=4t
c1     dispatch     seq=4    EOR  pc=0x2000 lut=3 ex=4t
c1     dispatch     seq=5    EOR  pc=0x2000 lut=3 ex=4t
c1     wakeup       seq=2    EOR  src=0
c1     wakeup       seq=3    EOR  gp=0
c1     grant        seq=2    EOR  ALU
c1     grant        seq=3    EOR  ALU egpw
c1     issue        seq=2    EOR  ALU/0 [2.0..2.4)
c1     issue        seq=3    EOR  ALU/1 [2.4..3.0) egpw recycled
c1     recycle      seq=3    EOR  chain=2 start=2.4
c2     commit       seq=0    MOV ` + "\n" + `c2     commit       seq=1    MOV ` + "\n" + `c2     wakeup       seq=4    EOR  src=3
c2     wakeup       seq=5    EOR  gp=3
c2     grant        seq=4    EOR  ALU
c2     grant        seq=5    EOR  ALU egpw
c2     issue        seq=4    EOR  ALU/0 [3.0..3.4)
c2     issue        seq=5    EOR  ALU/1 [3.4..4.0) egpw recycled
c2     recycle      seq=5    EOR  chain=2 start=3.4
c3     commit       seq=2    EOR ` + "\n" + `c3     commit       seq=3    EOR ` + "\n" + `c4     commit       seq=4    EOR ` + "\n" + `c4     commit       seq=5    EOR ` + "\n"

// goldenMOSMixStream is the pinned stream for mosMixProg on the Small core
// under MOS (see TestGoldenEventStreamMOSMix).
const goldenMOSMixStream = "c0     dispatch     seq=0    MOV  pc=0x1000 lut=3 ex=4t\n" +
	"c0     dispatch     seq=1    MOV  pc=0x1004 lut=3 ex=4t\n" +
	"c0     dispatch     seq=2    EOR  pc=0x2000 lut=3 ex=4t\n" +
	"c0     wakeup       seq=0    MOV  src=-1\n" +
	"c0     wakeup       seq=1    MOV  src=-1\n" +
	"c0     grant        seq=0    MOV  ALU\n" +
	"c0     grant        seq=1    MOV  ALU\n" +
	"c0     issue        seq=0    MOV  ALU/0 [1.0..2.0)\n" +
	"c0     issue        seq=1    MOV  ALU/1 [1.0..2.0)\n" +
	"c1     dispatch     seq=3    ADD  pc=0x2004 lut=11 ex=7t\n" +
	"c1     dispatch     seq=4    MLA  pc=0x2008 lut=0 ex=8t\n" +
	"c1     dispatch     seq=5    STR  pc=0x200c lut=0 ex=8t\n" +
	"c1     wakeup       seq=2    EOR  src=0\n" +
	"c1     grant        seq=2    EOR  ALU\n" +
	"c1     issue        seq=2    EOR  ALU/0 [2.0..3.0)\n" +
	"c2     commit       seq=0    MOV \n" +
	"c2     commit       seq=1    MOV \n" +
	"c2     dispatch     seq=6    LDR  pc=0x2010 lut=0 ex=8t\n" +
	"c2     dispatch     seq=7    EOR  pc=0x2014 lut=3 ex=4t\n" +
	"c2     dispatch     seq=8    EOR  pc=0x2000 lut=3 ex=4t\n" +
	"c2     wakeup       seq=3    ADD  src=2\n" +
	"c2     grant        seq=3    ADD  ALU\n" +
	"c2     issue        seq=3    ADD  ALU/0 [3.0..4.0)\n" +
	"c3     commit       seq=2    EOR \n" +
	"c3     dispatch     seq=9    ADD  pc=0x2004 lut=11 ex=7t\n" +
	"c3     dispatch     seq=10   MLA  pc=0x2008 lut=0 ex=8t\n" +
	"c3     dispatch     seq=11   STR  pc=0x200c lut=0 ex=8t\n" +
	"c3     wakeup       seq=4    MLA  src=0\n" +
	"c3     grant        seq=4    MLA  ALU\n" +
	"c3     issue        seq=4    MLA  ALU/0 [4.0..7.0)\n" +
	"c4     commit       seq=3    ADD \n" +
	"c4     dispatch     seq=12   LDR  pc=0x2010 lut=0 ex=8t\n" +
	"c4     dispatch     seq=13   EOR  pc=0x2014 lut=3 ex=4t\n" +
	"c4     dispatch     seq=14   EOR  pc=0x2000 lut=3 ex=4t\n" +
	"c5     dispatch     seq=15   ADD  pc=0x2004 lut=11 ex=7t\n" +
	"c5     dispatch     seq=16   MLA  pc=0x2008 lut=0 ex=8t\n" +
	"c5     dispatch     seq=17   STR  pc=0x200c lut=0 ex=8t\n" +
	"c6     dispatch     seq=18   LDR  pc=0x2010 lut=0 ex=8t\n" +
	"c6     dispatch     seq=19   EOR  pc=0x2014 lut=3 ex=4t\n" +
	"c6     wakeup       seq=5    STR  src=1\n" +
	"c6     grant        seq=5    STR  MEM\n" +
	"c6     issue        seq=5    STR  MEM/0 [7.0..8.0)\n" +
	"c7     commit       seq=4    MLA \n" +
	"c7     wakeup       seq=6    LDR  src=-1\n" +
	"c7     grant        seq=6    LDR  MEM\n" +
	"c7     issue        seq=6    LDR  MEM/0 [8.0..10.0) hold2\n" +
	"c8     commit       seq=5    STR \n" +
	"c9     wakeup       seq=7    EOR  src=6\n" +
	"c9     grant        seq=7    EOR  ALU\n" +
	"c9     issue        seq=7    EOR  ALU/0 [10.0..11.0)\n" +
	"c9     issue        seq=8    EOR  ALU/-1 [10.0..11.0) fused\n" +
	"c10    commit       seq=6    LDR \n" +
	"c10    wakeup       seq=9    ADD  src=8\n" +
	"c10    grant        seq=9    ADD  ALU\n" +
	"c10    issue        seq=9    ADD  ALU/0 [11.0..12.0)\n" +
	"c11    commit       seq=7    EOR \n" +
	"c11    commit       seq=8    EOR \n" +
	"c11    wakeup       seq=10   MLA  src=7\n" +
	"c11    grant        seq=10   MLA  ALU\n" +
	"c11    issue        seq=10   MLA  ALU/0 [12.0..15.0)\n" +
	"c12    commit       seq=9    ADD \n" +
	"c14    wakeup       seq=11   STR  src=10\n" +
	"c14    grant        seq=11   STR  MEM\n" +
	"c14    issue        seq=11   STR  MEM/0 [15.0..16.0)\n" +
	"c15    commit       seq=10   MLA \n" +
	"c15    wakeup       seq=12   LDR  src=-1\n" +
	"c15    grant        seq=12   LDR  MEM\n" +
	"c15    issue        seq=12   LDR  MEM/0 [16.0..18.0) hold2\n" +
	"c16    commit       seq=11   STR \n" +
	"c17    wakeup       seq=13   EOR  src=12\n" +
	"c17    grant        seq=13   EOR  ALU\n" +
	"c17    issue        seq=13   EOR  ALU/0 [18.0..19.0)\n" +
	"c17    issue        seq=14   EOR  ALU/-1 [18.0..19.0) fused\n" +
	"c18    commit       seq=12   LDR \n" +
	"c18    wakeup       seq=15   ADD  src=14\n" +
	"c18    grant        seq=15   ADD  ALU\n" +
	"c18    issue        seq=15   ADD  ALU/0 [19.0..20.0)\n" +
	"c19    commit       seq=13   EOR \n" +
	"c19    commit       seq=14   EOR \n" +
	"c19    wakeup       seq=16   MLA  src=13\n" +
	"c19    grant        seq=16   MLA  ALU\n" +
	"c19    issue        seq=16   MLA  ALU/0 [20.0..23.0)\n" +
	"c20    commit       seq=15   ADD \n" +
	"c22    wakeup       seq=17   STR  src=16\n" +
	"c22    grant        seq=17   STR  MEM\n" +
	"c22    issue        seq=17   STR  MEM/0 [23.0..24.0)\n" +
	"c23    commit       seq=16   MLA \n" +
	"c23    wakeup       seq=18   LDR  src=-1\n" +
	"c23    grant        seq=18   LDR  MEM\n" +
	"c23    issue        seq=18   LDR  MEM/0 [24.0..26.0) hold2\n" +
	"c24    commit       seq=17   STR \n" +
	"c25    wakeup       seq=19   EOR  src=18\n" +
	"c25    grant        seq=19   EOR  ALU\n" +
	"c25    issue        seq=19   EOR  ALU/0 [26.0..27.0)\n" +
	"c26    commit       seq=18   LDR \n" +
	"c27    commit       seq=19   EOR \n"
