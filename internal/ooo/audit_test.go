//go:build redsoc_audit

package ooo

import (
	"fmt"
	"strings"
	"testing"

	"redsoc/internal/alu"
	"redsoc/internal/isa"
	"redsoc/internal/workload/mibench"
)

// The tests in this file only build under the redsoc_audit tag; they drive
// real kernels through the simulator with the runtime invariant checker
// armed, so any understated estimate, FU over-hold or per-unit completion
// reordering panics mid-run (see audit_on.go).

func TestAuditEnabled(t *testing.T) {
	var s Simulator
	if !s.audit.Enabled() {
		t.Fatal("built with -tags redsoc_audit but the audit layer reports disabled")
	}
}

// TestAuditKernels runs reduced-size MiBench kernels under every config and
// policy. Passing means every issued operation satisfied the audit
// invariants AND the architectural results still check out.
func TestAuditKernels(t *testing.T) {
	kernels := []mibench.Kernel{
		{Name: "bitcnt", Build: func() (*isa.Program, mibench.Expected) { return mibench.Bitcount(300, 15) }},
		{Name: "crc", Build: func() (*isa.Program, mibench.Expected) { return mibench.CRC(400, 14) }},
		{Name: "gsm", Build: func() (*isa.Program, mibench.Expected) { return mibench.GSM(100, 13) }},
		{Name: "corners", Build: func() (*isa.Program, mibench.Expected) { return mibench.Corners(16, 12, 11) }},
	}
	for _, cfg := range []Config{SmallConfig(), MediumConfig(), BigConfig()} {
		for _, pol := range []Policy{PolicyBaseline, PolicyRedsoc} {
			for _, k := range kernels {
				k := k
				c := cfg.WithPolicy(pol)
				t.Run(c.Name+"/"+pol.String()+"/"+k.Name, func(t *testing.T) {
					p, want := k.Build()
					res, err := Run(c, p)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					for addr, v := range want.Mem { //lint:allow simdeterminism order-independent: per-address equality
						if got := res.FinalMem[addr]; got != v {
							t.Errorf("mem[%#x] = %d, want %d", addr, got, v)
						}
					}
				})
			}
		}
	}
}

// TestAuditCatchesLostWakeup plants the bug the lost-wakeup invariant
// exists for: a schedulable entry dropped from the wake buffer before the
// merge. The tag-indexed scan would never examine it again, so the audit
// must panic at the merge, with the flight recorder's tail attached.
func TestAuditCatchesLostWakeup(t *testing.T) {
	s := gpChain(t, BigConfig().WithPolicy(PolicyBaseline))
	s.AttachFlightRecorder(16)
	s.dispatch(0)
	if len(s.wakeBuf) == 0 {
		t.Fatal("dispatch seeded nothing; the planted drop needs a seeded entry")
	}
	for _, ei := range s.wakeBuf {
		s.ent(ei).inReady = false
	}
	s.wakeBuf = s.wakeBuf[:0]

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "lost wakeup") {
			t.Fatalf("want a lost-wakeup audit panic, got %q", msg)
		}
		if !strings.Contains(msg, "flight recorder") {
			t.Fatalf("the audit panic must carry the flight recorder's tail: %q", msg)
		}
	}()
	s.issue(0)
}

// TestAuditCatchesWrittenFinalState: a run's FinalMem and FinalRegs may be
// its program's shared canonical maps, which are read-only. A caller that
// writes into them must be reported, naming the program, by the next run of
// that program that would adopt them.
func TestAuditCatchesWrittenFinalState(t *testing.T) {
	for _, c := range []struct {
		name  string
		write func(r *Result)
	}{
		{"memory", func(r *Result) { r.FinalMem[0xdead0] = 1 }},
		{"registers", func(r *Result) { r.FinalRegs[isa.R(3)] = alu.Scalar(12345) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, _ := mibench.Bitcount(300, 15)
			cfg := SmallConfig().WithPolicy(PolicyRedsoc)
			res, err := Run(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			if !holdsCanonical(p, res) {
				t.Fatal("premise: the program's first run must publish its maps")
			}
			c.write(res)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "read-only") || !strings.Contains(msg, `program "bitcnt"`) {
					t.Fatalf("want an audit panic naming the program, got %q", msg)
				}
			}()
			_, _ = Run(cfg.WithPolicy(PolicyBaseline), p)
		})
	}
}

// TestAuditLockstepCatchesCorruptResult plants a one-bit corruption in an
// issued but uncommitted result. The lockstep interpreter must stop the run
// at exactly that commit: every older instruction commits cleanly, and the
// panic names the corrupted seq.
func TestAuditLockstepCatchesCorruptResult(t *testing.T) {
	for _, pol := range []Policy{PolicyBaseline, PolicyRedsoc} {
		t.Run(pol.String(), func(t *testing.T) {
			p, _ := mibench.Bitcount(300, 15)
			k := 100
			for !p.Instrs[k].DestReg().IsInt() {
				k++
			}
			s, err := New(SmallConfig().WithPolicy(pol), p)
			if err != nil {
				t.Fatal(err)
			}
			s.AttachFlightRecorder(16)
			cycle := int64(0)
			for planted := false; !planted; cycle++ {
				if s.step(cycle) {
					t.Fatalf("program drained before seq %d issued", k)
				}
				for i := 0; i < s.rob.len(); i++ {
					if e := s.ent(s.rob.at(i)); e.seq == int64(k) && e.state == stIssued {
						e.result.Lo ^= 1 << 7
						planted = true
					}
				}
			}
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprintf("seq %d op %v: pc %#x: %v = ", k, p.Instrs[k].Op, p.Instrs[k].PC, p.Instrs[k].Dst); !strings.Contains(msg, want) {
					t.Fatalf("want a lockstep panic containing %q, got %q", want, msg)
				}
				if !strings.Contains(msg, "flight recorder") {
					t.Fatalf("the lockstep panic must carry the flight recorder's tail: %q", msg)
				}
				if s.res.Instructions != int64(k) {
					t.Fatalf("panicked after %d commits; want exactly the %d older instructions committed", s.res.Instructions, k)
				}
			}()
			for ; !s.step(cycle); cycle++ {
			}
			t.Fatal("the corrupted result committed without a lockstep panic")
		})
	}
}
