package ooo

import (
	"regexp"
	"strings"
	"testing"

	"redsoc/internal/isa"
	"redsoc/internal/obs"
	"redsoc/internal/workload"
)

// runText simulates prog with an obs.TextSink attached and returns what the
// sink wrote.
func runText(t *testing.T, cfg Config, prog *isa.Program) string {
	t.Helper()
	sim, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	text := obs.NewTextSink(&sb, sim.Clock().TicksPerCycle())
	sim.SetObserver(text)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if err := text.Err(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// textLines returns the lines of a text stream whose event kind is kind.
func textLines(stream, kind string) []string {
	var out []string
	for _, line := range strings.Split(stream, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[1] == kind {
			out = append(out, line)
		}
	}
	return out
}

// execWindow matches an issue line's sub-cycle execution window, [c.f..c.f).
var execWindow = regexp.MustCompile(`\[\d+\.\d+\.\.\d+\.\d+\)`)

func TestTextSinkEmitsPipelineEvents(t *testing.T) {
	p := longChain(isa.OpEOR, 8)
	out := runText(t, BigConfig().WithPolicy(PolicyRedsoc), p)
	for _, want := range []string{"dispatch", "issue", "commit", "recycled", "EOR"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	// Every instruction dispatches and commits exactly once.
	if got := len(textLines(out, "dispatch")); got != p.Len() {
		t.Errorf("dispatch lines = %d, want %d", got, p.Len())
	}
	if got := len(textLines(out, "commit")); got != p.Len() {
		t.Errorf("commit lines = %d, want %d", got, p.Len())
	}
	// Sub-cycle instants are printed as cycle.frac.
	issues := textLines(out, "issue")
	if len(issues) == 0 || !execWindow.MatchString(issues[0]) {
		t.Errorf("issue lines missing execution windows:\n%s", out)
	}
}

func TestTextSinkRedirectEvent(t *testing.T) {
	b := workload.NewBuilder("br")
	b.MovImm(isa.R(1), 1)
	for i := 0; i < 20; i++ {
		b.At(0x3000)
		b.CmpImm(isa.R(1), 0)
		b.At(0x3004)
		b.Branch(i%2 == 0) // alternating: mispredicts often
	}
	if len(textLines(runText(t, SmallConfig(), b.Build()), "redirect")) == 0 {
		t.Error("alternating branches must produce redirect lines")
	}
}

func TestTextSinkDetach(t *testing.T) {
	sim, err := New(SmallConfig(), longChain(isa.OpEOR, 10))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sim.SetObserver(obs.NewTextSink(&sb, sim.Clock().TicksPerCycle()))
	sim.SetObserver(nil)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Error("a detached sink must receive nothing")
	}
}

// TestTextSinkMatchesFormatStream checks that the streaming sink writes
// exactly what FormatStream renders from a Buffer of the same run, under
// every policy.
func TestTextSinkMatchesFormatStream(t *testing.T) {
	for p := PolicyBaseline; p < NumPolicies; p++ {
		cfg := SmallConfig().WithPolicy(p)
		_, want := runObserved(t, cfg, mosMixProg())
		if got := runText(t, cfg, mosMixProg()); got != want {
			t.Errorf("%v: text sink diverged from FormatStream.\ngot:\n%s\nwant:\n%s", p, got, want)
		}
	}
}

// cancelProg makes a last-arrival tag mispredict: the ADD tracks its first
// operand (the end of a single-cycle EOR chain) while its second (a DIV) is
// still executing, so its grant is cancelled at validation, cycles after
// the ADD dispatched.
func cancelProg() *isa.Program {
	b := workload.NewBuilder("cancel")
	b.MovImm(isa.R(1), 1<<40).MovImm(isa.R(2), 17).MovImm(isa.R(3), 5)
	b.Op3(isa.OpDIV, isa.R(4), isa.R(1), isa.R(2))
	for i := 0; i < 6; i++ {
		b.Op3(isa.OpEOR, isa.R(3), isa.R(3), isa.R(2))
	}
	b.Op3(isa.OpADD, isa.R(6), isa.R(3), isa.R(4))
	return b.Build()
}

// squashProg makes a speculative-LSQ misallocation: the load's base comes
// from a single-cycle chain, so it bets on the store's queue entry cycles
// after it dispatched, while the store still waits on a DIV for its data.
func squashProg() *isa.Program {
	b := workload.NewBuilder("squash")
	b.InitMem(0x8100, 0x22)
	b.MovImm(isa.R(1), 9).MovImm(isa.R(2), 0)
	b.Op3(isa.OpDIV, isa.R(3), isa.R(1), isa.R(1))
	for i := 0; i < 6; i++ {
		b.Op3(isa.OpEOR, isa.R(2), isa.R(2), isa.R(2))
	}
	b.Store(isa.R(3), isa.R(2), 0x8100)
	b.Load(isa.R(4), isa.R(2), 0x8100)
	return b.Build()
}

// TestTextSinkCancelCarriesCancelCycle checks that a wasted grant's line
// (a tag-mispredict cancel, or a speculative-LSQ squash) carries the cycle
// of the grant it wasted, not the cycle its instruction dispatched in.
func TestTextSinkCancelCarriesCancelCycle(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		prog *isa.Program
		kind string
	}{
		{"tag-mispredict", SmallConfig().WithPolicy(PolicyRedsoc), cancelProg(), "cancel"},
		{"lsq-squash", SmallConfig().WithPolicy(PolicySpecLSQ), squashProg(), "lsq-squash"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := runText(t, tc.cfg, tc.prog)
			cancels := textLines(out, tc.kind)
			if len(cancels) == 0 {
				t.Fatalf("no %s line:\n%s", tc.kind, out)
			}
			for _, line := range cancels {
				f := strings.Fields(line)
				cycle, seq := f[0], f[2]
				var dispatch, granted bool
				for _, d := range textLines(out, "dispatch") {
					if g := strings.Fields(d); g[2] == seq && g[0] == cycle {
						dispatch = true
					}
				}
				for _, g := range textLines(out, "grant") {
					if h := strings.Fields(g); h[2] == seq && h[0] == cycle {
						granted = true
					}
				}
				if dispatch || !granted {
					t.Errorf("%q: want the cycle of its wasted grant, not of its dispatch\n%s", line, out)
				}
			}
		})
	}
}
