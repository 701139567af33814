package ooo

import (
	"slices"
	"sync"
	"testing"

	"redsoc/internal/isa"
	"redsoc/internal/workload"
)

// profiled builds a program whose delay profile is worked out by hand in
// TestDelayProfileByHand.
func profiled() *isa.Program {
	b := workload.NewBuilder("profiled")
	b.InitMem(0x100, 9)
	b.MovImm(isa.R(1), 3).MovImm(isa.R(2), 100).MovImm(isa.R(3), 1<<63)
	b.Op3(isa.OpADD, isa.R(4), isa.R(1), isa.R(2)) // 3 + 100: 8-bit operands
	b.Op3(isa.OpADD, isa.R(5), isa.R(3), isa.R(2)) // 1<<63 + 100: 64-bit operands
	b.Op3(isa.OpEOR, isa.R(6), isa.R(1), isa.R(2))
	b.Op3(isa.OpMUL, isa.R(7), isa.R(1), isa.R(2))
	b.Load(isa.R(8), isa.R(0), 0x100)
	b.Store(isa.R(4), isa.R(0), 0x108)
	return b.Build()
}

// TestDelayProfileByHand: a hand-built program's profile holds the bins
// worked out by hand from the delay model's constants (internal/timing):
// a logic op is logicBasePS (175) plus its opcode offset, an add is the
// Kogge–Stone adder's adderFixedPS (40) plus adderStagePS (60) per prefix
// level of its operand width, and every other op sits at its class's
// limiting pipeline stage (StageDelayPS).
func TestDelayProfileByHand(t *testing.T) {
	want := DelayHistogram{
		{PS: 175, Ops: 3}, // three MOVs: 175 + MOV's offset 0
		{PS: 200, Ops: 1}, // EOR: 175 + EOR's offset 25
		{PS: 220, Ops: 1}, // ADD at 8 bits: 40 + 3 levels × 60
		{PS: 400, Ops: 1}, // ADD at 64 bits: 40 + 6 levels × 60
		{PS: 480, Ops: 2}, // the load and the store: the memory stage
		{PS: 490, Ops: 1}, // MUL: the multiplier stage
	}
	if got := DelayProfile(profiled()); !slices.Equal(got, want) {
		t.Fatalf("delay profile %v, want %v", got, want)
	}
}

// TestDelayProfileSharesTheOraclePass: the profile comes from the
// interpreter pass that builds the program's final state, so once
// FinalState has run, DelayProfile returns the bins that pass counted —
// building nothing and allocating nothing.
func TestDelayProfileSharesTheOraclePass(t *testing.T) {
	p := profiled()
	FinalState(p)
	counted := canonicalOf(p).delays
	if h := DelayProfile(p); &h[0] != &counted[0] {
		t.Fatal("DelayProfile built a profile of its own after FinalState")
	}
	if raceEnabled {
		return
	}
	if avg := testing.AllocsPerRun(100, func() { DelayProfile(p) }); avg != 0 {
		t.Errorf("DelayProfile after FinalState allocates %.1f objects/call, want 0", avg)
	}
}

// TestDelayProfileConcurrentFirstCalls: concurrent first calls on one
// program share one build, so every caller holds the same bins, the ones
// the program's final state holds.
func TestDelayProfileConcurrentFirstCalls(t *testing.T) {
	p := profiled()
	got := make([]DelayHistogram, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = DelayProfile(p)
		}()
	}
	close(start)
	wg.Wait()
	counted := canonicalOf(p).delays
	for i, h := range got {
		if &h[0] != &counted[0] {
			t.Fatalf("caller %d holds a profile of its own build", i)
		}
	}
}
