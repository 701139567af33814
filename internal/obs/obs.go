// Package obs is the simulator's sub-cycle observability layer: a structured
// pipeline-event vocabulary the scheduler in internal/ooo emits into, plus
// the consumers that make those events useful — an appending Buffer for
// post-run export (Perfetto, golden streams), a fixed-size Ring "flight
// recorder" that keeps the last N events for crash dumps, and deterministic
// metrics snapshots.
//
// The layer is designed to cost nothing when disabled: the simulator holds a
// nil Sink by default and every emission sits behind an `if sink != nil`
// guard, so the steady-state scheduler pays one predictable branch per hook.
// Event is a fixed-size value type with no pointers or strings, so emitting
// one allocates nothing; the obszeroalloc analyzer in cmd/redsoc-vet enforces
// both properties statically.
package obs

import (
	"fmt"
	"io"
	"strings"

	"redsoc/internal/isa"
	"redsoc/internal/timing"
)

// Kind discriminates pipeline events. The ordering follows an instruction's
// life: decode, wakeup, select, issue, completion-side effects, commit.
type Kind uint8

const (
	// KindDispatch is decode + slack-bucket assignment: Arg carries the
	// 5-bit slack-LUT address, Start the bucketed EX-TIME estimate in ticks.
	KindDispatch Kind = iota
	// KindWakeup fires once per entry when its tracked operands first make
	// it request-eligible: Arg is the waking producer's seq (-1 if all
	// operands were ready at rename); FlagSpec marks a speculative EGPW
	// wakeup sourced from the grandparent tag.
	KindWakeup
	// KindGrant and KindDeny are the select arbiter's per-request outcomes
	// for one cycle; FlagSpec marks speculative (EGPW) requests.
	KindGrant
	KindDeny
	// KindIssue is a successful issue: [Start, Comp) is the planned
	// execution window in absolute ticks, Unit the functional unit claimed,
	// and Flags carry Spec/Recycled/Hold2/Fused.
	KindIssue
	// KindRecycle marks a transparent-latch recycled evaluation (the op
	// began mid-cycle on a producer's output latch); Arg is the transparent
	// chain length ending at this op.
	KindRecycle
	// KindCancel is a select grant wasted at validation: FlagSpec for a
	// GP-woken child whose parent did not issue, otherwise a last-arrival
	// tag mispredict.
	KindCancel
	// KindViolation is a Razor-style timing-violation detection (and its
	// selective reissue): FlagLatch marks the producer-side output-latch
	// detector, otherwise the consumer-side operand detector fired.
	KindViolation
	// KindWidthReplay is an aggressive width misprediction replayed via
	// selective reissue.
	KindWidthReplay
	// KindCommit retires the instruction in order.
	KindCommit
	// KindRedirect is a mispredicted branch stalling the front end.
	KindRedirect
	// KindDegrade and KindRearm are graceful-degradation transitions of one
	// FU pool (Seq is -1: the event is pool-wide, not per-instruction).
	KindDegrade
	KindRearm
	// KindLoadDelay is a load broadcasting a tracked-delay completion instant
	// (loaddelay policy): Start carries the CI on the wakeup bus, Comp the
	// honest resolved completion, Arg the tracked delay in cycles.
	KindLoadDelay
	// KindLSQForward is a load served at LSQ-read latency from a
	// (speculatively allocated) store-queue entry (speclsq policy); Arg is
	// the forwarding store's seq.
	KindLSQForward
	// KindLSQSquash is a speculative LSQ misallocation caught at issue
	// validation: the store had not executed, the grant was wasted. Arg is
	// the store's seq.
	KindLSQSquash

	numKinds
)

var kindNames = [numKinds]string{
	KindDispatch: "dispatch", KindWakeup: "wakeup", KindGrant: "grant",
	KindDeny: "deny", KindIssue: "issue", KindRecycle: "recycle",
	KindCancel: "cancel", KindViolation: "violation",
	KindWidthReplay: "width-replay", KindCommit: "commit",
	KindRedirect: "redirect", KindDegrade: "degrade", KindRearm: "rearm",
	KindLoadDelay: "load-delay", KindLSQForward: "lsq-forward",
	KindLSQSquash: "lsq-squash",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Flag is a bitset of event qualifiers.
type Flag uint8

const (
	// FlagSpec marks speculative EGPW (grandparent-sourced) activity.
	FlagSpec Flag = 1 << iota
	// FlagRecycled marks a transparent (mid-cycle) evaluation.
	FlagRecycled
	// FlagHold2 marks a recycled evaluation holding its FU two cycles (IT3).
	FlagHold2
	// FlagLatch marks a producer-side (output latch) violation detection.
	FlagLatch
	// FlagFused marks a MOS-fused op executed in its producer's cycle.
	FlagFused
)

// Functional-unit pool identifiers, mirroring the scheduler's Table I
// taxonomy (internal/ooo asserts the correspondence in its tests).
const (
	FUALU uint8 = iota
	FUSIMD
	FUFP
	FUMEM
	NumFUs
)

var fuNames = [NumFUs]string{"ALU", "SIMD", "FP", "MEM"}

// FUName names a functional-unit pool.
func FUName(fu uint8) string {
	if fu < NumFUs {
		return fuNames[fu]
	}
	return fmt.Sprintf("FU(%d)", fu)
}

// Event is one pipeline occurrence at sub-cycle resolution. It is a plain
// fixed-size value — no pointers, strings or slices — so emitting one into a
// Sink allocates nothing and two identical runs produce byte-identical
// streams.
type Event struct {
	Kind  Kind
	FU    uint8 // functional-unit pool (FUALU..FUMEM)
	Unit  int16 // unit index within the pool; -1 when not bound to a unit
	Flags Flag
	Op    isa.Op
	Cycle int64        // scheduler cycle the event happened in
	Seq   int64        // dynamic instruction sequence number; -1 for pool-wide events
	Start timing.Ticks // kind-specific instant (issue: window start; dispatch: EX-TIME estimate)
	Comp  timing.Ticks // kind-specific instant (issue: completion instant CI)
	Arg   int64        // kind-specific payload (dispatch: LUT address; wakeup: source seq; recycle: chain length)
	PC    uint64
}

// Sink receives pipeline events as the simulator produces them. Emit must
// not retain sub-structure of the event (there is none) and must not fail:
// observability never changes simulation outcomes.
type Sink interface {
	Emit(Event)
}

// Buffer is an appending Sink for post-run export. Limit, when positive,
// caps the number of retained events (the tail is dropped, keeping exactly
// the first Limit events — handy for small committed golden fixtures).
type Buffer struct {
	Limit  int
	events []Event
}

// Emit appends the event, respecting Limit.
func (b *Buffer) Emit(e Event) {
	if b.Limit > 0 && len(b.events) >= b.Limit {
		return
	}
	b.events = append(b.events, e)
}

// Events returns the retained events in emission order.
func (b *Buffer) Events() []Event { return b.events }

// Ring is the flight-recorder Sink: a fixed-capacity ring buffer retaining
// the most recent events, so a crash handler (redsoc_audit invariant
// failure, chaos verification mismatch) can dump the sub-cycle history that
// led up to the failure.
type Ring struct {
	events []Event
	next   int
	filled bool
}

// NewRing returns a flight recorder retaining the last n events (n >= 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{events: make([]Event, n)}
}

// Emit records the event, evicting the oldest once the ring is full.
func (r *Ring) Emit(e Event) {
	r.events[r.next] = e
	r.next++
	if r.next == len(r.events) {
		r.next = 0
		r.filled = true
	}
}

// Len returns the number of events currently retained.
func (r *Ring) Len() int {
	if r.filled {
		return len(r.events)
	}
	return r.next
}

// Tail returns the most recent k events (or fewer, if fewer were emitted) in
// emission order.
func (r *Ring) Tail(k int) []Event {
	n := r.Len()
	if k > n {
		k = n
	}
	out := make([]Event, 0, k)
	start := r.next - k
	if start < 0 {
		start += len(r.events)
	}
	for i := 0; i < k; i++ {
		out = append(out, r.events[(start+i)%len(r.events)])
	}
	return out
}

// instant renders an absolute tick as cycle.frac at the given precision.
func instant(t timing.Ticks, ticksPerCycle int) string {
	tpc := int64(ticksPerCycle)
	return fmt.Sprintf("%d.%d", int64(t)/tpc, int64(t)%tpc)
}

// Format renders the event as one stable text line; ticksPerCycle sets the
// sub-cycle instant notation (cycle.frac). The format is part of the golden
// event-stream contract: change it deliberately, updating the goldens.
func (e Event) Format(ticksPerCycle int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "c%-5d %-12s", e.Cycle, e.Kind)
	if e.Seq >= 0 {
		fmt.Fprintf(&b, " seq=%-4d %-4s", e.Seq, e.Op)
	} else {
		fmt.Fprintf(&b, " %s", FUName(e.FU))
	}
	switch e.Kind {
	case KindDispatch:
		fmt.Fprintf(&b, " pc=%#x lut=%d ex=%dt", e.PC, e.Arg, e.Start)
	case KindWakeup:
		if e.Flags&FlagSpec != 0 {
			fmt.Fprintf(&b, " gp=%d", e.Arg)
		} else {
			fmt.Fprintf(&b, " src=%d", e.Arg)
		}
	case KindGrant, KindDeny:
		fmt.Fprintf(&b, " %s", FUName(e.FU))
		if e.Flags&FlagSpec != 0 {
			b.WriteString(" egpw")
		}
	case KindIssue:
		fmt.Fprintf(&b, " %s/%d [%s..%s)", FUName(e.FU), e.Unit,
			instant(e.Start, ticksPerCycle), instant(e.Comp, ticksPerCycle))
		if e.Flags&FlagSpec != 0 {
			b.WriteString(" egpw")
		}
		if e.Flags&FlagRecycled != 0 {
			b.WriteString(" recycled")
		}
		if e.Flags&FlagHold2 != 0 {
			b.WriteString(" hold2")
		}
		if e.Flags&FlagFused != 0 {
			b.WriteString(" fused")
		}
	case KindRecycle:
		fmt.Fprintf(&b, " chain=%d start=%s", e.Arg, instant(e.Start, ticksPerCycle))
	case KindCancel:
		if e.Flags&FlagSpec != 0 {
			b.WriteString(" gp-wasted")
		} else {
			b.WriteString(" tag-mispredict")
		}
	case KindViolation:
		if e.Flags&FlagLatch != 0 {
			b.WriteString(" output-latch")
		} else {
			b.WriteString(" consumer")
		}
	case KindLoadDelay:
		fmt.Fprintf(&b, " tracked=%dcyc bus=%s true=%s", e.Arg,
			instant(e.Start, ticksPerCycle), instant(e.Comp, ticksPerCycle))
	case KindLSQForward:
		fmt.Fprintf(&b, " st=%d lsq-read", e.Arg)
	case KindLSQSquash:
		fmt.Fprintf(&b, " st=%d misalloc", e.Arg)
	}
	return b.String()
}

// FormatStream renders events one per line — the golden event-stream and
// flight-recorder dump format.
func FormatStream(events []Event, ticksPerCycle int) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.Format(ticksPerCycle))
		b.WriteByte('\n')
	}
	return b.String()
}

// TextSink is a streaming Sink that writes each event as one Format line the
// moment it is emitted, for live pipeline traces of small programs. Its
// output equals FormatStream over a Buffer of the same run. Emit cannot
// fail, so the first write error is kept, later events are dropped, and Err
// reports it after the run.
type TextSink struct {
	w             io.Writer
	ticksPerCycle int
	err           error
}

// NewTextSink returns a TextSink writing to w at the given sub-cycle
// precision (the simulator clock's TicksPerCycle).
func NewTextSink(w io.Writer, ticksPerCycle int) *TextSink {
	return &TextSink{w: w, ticksPerCycle: ticksPerCycle}
}

// Emit writes the event's Format line.
func (t *TextSink) Emit(e Event) {
	if t.err == nil {
		_, t.err = io.WriteString(t.w, e.Format(t.ticksPerCycle)+"\n")
	}
}

// Err returns the first write error, if any.
func (t *TextSink) Err() error { return t.err }
