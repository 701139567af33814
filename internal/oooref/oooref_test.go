// The frozen reference engine's only job is to disagree loudly when the
// rewritten engine drifts (internal/difftest does the byte-level diffing).
// This smoke keeps the snapshot honest in its own right: it must still run
// every preset/policy the differential pairs use, deterministically, and
// retire every instruction — so a decayed snapshot is caught here, not
// misread as a rewrite bug.
package oooref_test

import (
	"strings"
	"testing"

	"redsoc/internal/difftest"
	"redsoc/internal/obs"
	"redsoc/internal/ooo"
	"redsoc/internal/oooref"
)

func TestFrozenEngineRunsDifferentialPairs(t *testing.T) {
	for _, pair := range difftest.Pairs() {
		t.Run(pair.Name, func(t *testing.T) {
			for i, seed := range []int64{11, 12, 13} {
				prog := difftest.Generate(seed, 64+48*i)
				first, err := oooref.Run(pair.RefConfig(), prog)
				if err != nil {
					t.Fatal(err)
				}
				if first.Instructions != int64(len(prog.Instrs)) {
					t.Fatalf("seed %d: retired %d of %d instructions", seed, first.Instructions, len(prog.Instrs))
				}
				if first.Cycles <= 0 {
					t.Fatalf("seed %d: nonpositive cycle count %d", seed, first.Cycles)
				}
				again, err := oooref.Run(pair.RefConfig(), prog)
				if err != nil {
					t.Fatal(err)
				}
				if again.Cycles != first.Cycles {
					t.Fatalf("seed %d: nondeterministic: %d then %d cycles", seed, first.Cycles, again.Cycles)
				}
			}
		})
	}
}

// TestFrozenEngineObservables covers the snapshot's event and metrics
// surfaces, which the differential harness renders on every comparison: an
// attached observer must see a non-empty stream and the metrics must encode.
func TestFrozenEngineObservables(t *testing.T) {
	prog := difftest.Generate(7, 96)
	cfg := ooo.MediumConfig().WithPolicy(ooo.PolicyRedsoc)
	sim, err := oooref.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	buf := &obs.Buffer{}
	sim.SetObserver(buf)
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	stream := obs.FormatStream(buf.Events(), sim.Clock().TicksPerCycle())
	if !strings.Contains(stream, "dispatch") {
		t.Fatal("event stream has no dispatch events")
	}
	var sb strings.Builder
	if err := obs.WriteJSON(&sb, res.Metrics(prog.Name, cfg.Name, cfg.Policy.String())); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "cycles") {
		t.Fatalf("metrics JSON missing cycle count: %s", sb.String())
	}
}

// TestFrozenEngineRejectsInvalidConfig checks the reference's scope guard:
// each configuration the live engine runs but the reference does not model
// is refused, as is one the live engine's Validate rejects (zero ROB).
func TestFrozenEngineRejectsInvalidConfig(t *testing.T) {
	cases := []struct {
		name      string
		policy    ooo.Policy
		edit      func(*ooo.Config)
		validLive bool
	}{
		{"loaddelay", ooo.PolicyLoadDelay, func(*ooo.Config) {}, true},
		{"speclsq", ooo.PolicySpecLSQ, func(*ooo.Config) {}, true},
		{"fault", ooo.PolicyRedsoc, func(c *ooo.Config) { *c = c.WithFaults(0.01, 1); c.Degrade.Enable = false }, true},
		{"degrade", ooo.PolicyRedsoc, func(c *ooo.Config) { c.Degrade.Enable = true }, true},
		{"pvt", ooo.PolicyRedsoc, func(c *ooo.Config) { c.PVT.Enable = true }, true},
		{"dynamic-threshold", ooo.PolicyRedsoc, func(c *ooo.Config) { c.Redsoc.DynamicThreshold = true }, true},
		{"zero-rob", ooo.PolicyBaseline, func(c *ooo.Config) { c.ROBSize = 0 }, false},
	}
	prog := difftest.Generate(1, 16)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ooo.SmallConfig().WithPolicy(tc.policy)
			tc.edit(&cfg)
			if _, err := ooo.New(cfg, prog); (err == nil) != tc.validLive {
				t.Fatalf("live engine: New error %v, want valid=%v", err, tc.validLive)
			}
			if _, err := oooref.New(cfg, prog); err == nil {
				t.Fatal("reference accepted the configuration")
			}
		})
	}
}
