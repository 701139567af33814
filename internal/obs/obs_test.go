package obs

import (
	"errors"
	"strings"
	"testing"

	"redsoc/internal/isa"
)

func testEvents() []Event {
	return []Event{
		{Kind: KindDispatch, Cycle: 0, Seq: 0, Op: isa.OpADD, PC: 0x1000, FU: FUALU, Unit: -1, Arg: 5, Start: 4},
		{Kind: KindWakeup, Cycle: 1, Seq: 0, Op: isa.OpADD, FU: FUALU, Unit: -1, Arg: -1},
		{Kind: KindGrant, Cycle: 1, Seq: 0, Op: isa.OpADD, FU: FUALU, Unit: -1},
		{Kind: KindIssue, Cycle: 1, Seq: 0, Op: isa.OpADD, FU: FUALU, Unit: 2, Start: 16, Comp: 20, Flags: FlagRecycled},
		{Kind: KindRecycle, Cycle: 1, Seq: 0, Op: isa.OpADD, FU: FUALU, Unit: 2, Arg: 3, Start: 16},
		{Kind: KindViolation, Cycle: 2, Seq: 0, Op: isa.OpADD, FU: FUALU, Unit: 2, Flags: FlagLatch},
		{Kind: KindCommit, Cycle: 3, Seq: 0, Op: isa.OpADD, FU: FUALU, Unit: -1},
		{Kind: KindDegrade, Cycle: 4, Seq: -1, FU: FUSIMD, Unit: -1},
	}
}

func TestBufferLimit(t *testing.T) {
	b := &Buffer{Limit: 3}
	for _, e := range testEvents() {
		b.Emit(e)
	}
	if len(b.Events()) != 3 {
		t.Fatalf("retained %d events, want 3", len(b.Events()))
	}
	if b.Events()[0].Kind != KindDispatch || b.Events()[2].Kind != KindGrant {
		t.Error("Limit must keep the FIRST events, dropping the tail")
	}
}

func TestRingTail(t *testing.T) {
	r := NewRing(4)
	events := testEvents()
	for _, e := range events {
		r.Emit(e)
	}
	if r.Len() != 4 {
		t.Fatalf("ring len %d, want 4", r.Len())
	}
	tail := r.Tail(4)
	for i, e := range tail {
		want := events[len(events)-4+i]
		if e.Kind != want.Kind {
			t.Errorf("tail[%d].Kind = %v, want %v", i, e.Kind, want.Kind)
		}
	}
	if got := r.Tail(2); len(got) != 2 || got[1].Kind != KindDegrade {
		t.Error("Tail(k) must return the most recent k in emission order")
	}
	if got := r.Tail(99); len(got) != 4 {
		t.Errorf("Tail over capacity returned %d events, want 4", len(got))
	}
}

func TestRingPartiallyFilled(t *testing.T) {
	r := NewRing(8)
	r.Emit(Event{Kind: KindIssue, Seq: 7})
	if r.Len() != 1 {
		t.Fatalf("len %d, want 1", r.Len())
	}
	if tail := r.Tail(8); len(tail) != 1 || tail[0].Seq != 7 {
		t.Error("partially-filled ring must return only emitted events")
	}
}

// TestEmitDoesNotAllocate pins the zero-alloc contract the obszeroalloc
// analyzer enforces statically: pushing a fixed-size Event through the Sink
// interface into the flight recorder allocates nothing.
func TestEmitDoesNotAllocate(t *testing.T) {
	r := NewRing(16)
	var sink Sink = r
	ev := Event{Kind: KindIssue, Cycle: 9, Seq: 3, Op: isa.OpADD, FU: FUALU, Unit: 1, Start: 72, Comp: 80}
	if allocs := testing.AllocsPerRun(1000, func() { sink.Emit(ev) }); allocs != 0 {
		t.Errorf("Emit allocates %.1f times per call, want 0", allocs)
	}
}

func TestFormatStreamStable(t *testing.T) {
	got := FormatStream(testEvents(), 8)
	for _, want := range []string{
		"c0     dispatch     seq=0    ADD  pc=0x1000 lut=5 ex=4t",
		"wakeup       seq=0    ADD  src=-1",
		"issue        seq=0    ADD  ALU/2 [2.0..2.4) recycled",
		"recycle      seq=0    ADD  chain=3 start=2.0",
		"violation    seq=0    ADD  output-latch",
		"c4     degrade      SIMD",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("stream missing %q:\n%s", want, got)
		}
	}
	if got != FormatStream(testEvents(), 8) {
		t.Error("FormatStream is not deterministic")
	}
}

// failAfter accepts n writes, then fails every later one.
type failAfter struct {
	n, calls int
	sb       strings.Builder
}

var errWrite = errors.New("write failed")

func (w *failAfter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls > w.n {
		return 0, errWrite
	}
	return w.sb.Write(p)
}

// TestTextSinkKeepsFirstWriteError checks that the streaming sink writes
// FormatStream's lines and, once a write fails, keeps that error and stops
// writing.
func TestTextSinkKeepsFirstWriteError(t *testing.T) {
	w := &failAfter{n: 2}
	text := NewTextSink(w, 8)
	for _, e := range testEvents() {
		text.Emit(e)
	}
	if !errors.Is(text.Err(), errWrite) {
		t.Fatalf("Err() = %v, want the write error", text.Err())
	}
	if w.calls != 3 {
		t.Errorf("%d writes attempted, want 3 (none after the first failure)", w.calls)
	}
	if want := FormatStream(testEvents()[:2], 8); w.sb.String() != want {
		t.Errorf("wrote %q, want %q", w.sb.String(), want)
	}
}

func TestKindAndFUNames(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "Kind(") {
			t.Errorf("Kind %d has no name", k)
		}
	}
	if Kind(200).String() != "Kind(200)" {
		t.Error("out-of-range kind must degrade gracefully")
	}
	if FUName(FUMEM) != "MEM" || FUName(99) != "FU(99)" {
		t.Error("FUName misbehaves")
	}
}

func TestWritePerfetto(t *testing.T) {
	var sb strings.Builder
	meta := Meta{Benchmark: "chain", Core: "Small", Policy: "redsoc", TicksPerCycle: 8}
	if err := WritePerfetto(&sb, testEvents(), meta); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`"ph": "M"`,              // track metadata
		`"name": "ALU unit 2"`,   // the one seen execution track
		`"ph": "b"`, `"ph": "e"`, // instruction lifetime span
		`"ph": "X"`, // execution slice
		`"name": "timing-violation"`,
		`"name": "degrade"`,
		`"ticks_per_cycle": 8`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("perfetto export missing %s", want)
		}
	}
	// Unseen tracks must not be named; the export must be deterministic.
	if strings.Contains(out, "ALU unit 3") {
		t.Error("export names a track no event used")
	}
	var again strings.Builder
	if err := WritePerfetto(&again, testEvents(), meta); err != nil {
		t.Fatal(err)
	}
	if out != again.String() {
		t.Error("perfetto export is not byte-deterministic")
	}
}

func TestWriteJSONSortsKeys(t *testing.T) {
	m := Metrics{
		Benchmark: "b", Core: "c", Policy: "p",
		Counters: map[string]int64{"zeta": 1, "alpha": 2, "mid": 3},
		Rates:    map[string]float64{"z_rate": 0.5, "a_rate": 0.25},
	}
	var sb strings.Builder
	if err := WriteJSON(&sb, m); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !(strings.Index(out, `"alpha"`) < strings.Index(out, `"mid"`) &&
		strings.Index(out, `"mid"`) < strings.Index(out, `"zeta"`)) {
		t.Errorf("counter keys not sorted:\n%s", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("WriteJSON must end with a newline")
	}
}
