package harness

import (
	"context"
	"sync"
	"testing"

	"redsoc/internal/ooo"
	"redsoc/internal/timing"
)

// The full Quick grid is expensive; share it across the claims tests.
var (
	claimsOnce sync.Once
	claimsGrid *Grid
	claimsErr  error
)

func quickGrid(t *testing.T) *Grid {
	t.Helper()
	if testing.Short() {
		t.Skip("grid run")
	}
	claimsOnce.Do(func() {
		claimsGrid, claimsErr = Run(context.Background(), Benchmarks(Quick), Cores(), Options{SweepThreshold: true})
	})
	if claimsErr != nil {
		t.Fatal(claimsErr)
	}
	return claimsGrid
}

// TestClaimOrderings pins the paper's qualitative claims (the reproduction's
// contract): suite ordering, core-size ordering, comparator ratios, FU-stall
// growth. If a calibration change breaks one of these, this fails loudly.
func TestClaimOrderings(t *testing.T) {
	g := quickGrid(t)

	// Claim 1: MiBench >> SPEC >> ML on every core (our ML under-reproduces;
	// the paper itself has MiBench on top).
	for _, core := range []string{"Big", "Medium", "Small"} {
		mib := g.ClassMeanSpeedup(ClassMiB, core)
		spec := g.ClassMeanSpeedup(ClassSPEC, core)
		if mib <= spec {
			t.Errorf("%s: MiBench mean (%+.1f%%) must exceed SPEC (%+.1f%%)", core, mib, spec)
		}
	}

	// Claim 2: gains grow with core size within each class (paper Sec. VI-C).
	for _, class := range []Class{ClassSPEC, ClassMiB} {
		big := g.ClassMeanSpeedup(class, "Big")
		small := g.ClassMeanSpeedup(class, "Small")
		if big <= small {
			t.Errorf("%s: Big (%+.1f%%) must beat Small (%+.1f%%)", class, big, small)
		}
	}

	// Claim 3 (Fig. 15): ReDSOC >= 2x TS, and clearly ahead of MOS (our MOS
	// reproduces somewhat stronger on SPEC than the paper's, so the pinned
	// MOS ratio is 1.5x there; see EXPERIMENTS.md).
	for _, class := range []Class{ClassSPEC, ClassMiB} {
		for _, core := range []string{"Big", "Medium"} {
			var rd, ts, mos float64
			cells := g.CellsOf(class, core)
			for _, c := range cells {
				rd += 100 * (c.Cmp.Speedup(ooo.PolicyRedsoc) - 1)
				ts += 100 * (c.Cmp.TS.Speedup - 1)
				mos += 100 * (c.Cmp.Speedup(ooo.PolicyMOS) - 1)
			}
			if rd < 2*ts || rd < 1.5*mos {
				t.Errorf("%s/%s: ReDSOC %+0.1f%% vs TS %+0.1f%% / MOS %+0.1f%% — want >= 2x TS, 1.5x MOS",
					class, core, rd/float64(len(cells)), ts/float64(len(cells)), mos/float64(len(cells)))
			}
		}
	}

	// Claim 4 (Fig. 14): FU stall rates rise under ReDSOC for the classes
	// that recycle heavily.
	var base, red float64
	for _, c := range g.CellsOf(ClassMiB, "") {
		base += c.Cmp.Runs[ooo.PolicyBaseline].FUStallRate()
		red += c.Cmp.Runs[ooo.PolicyRedsoc].FUStallRate()
	}
	if red <= base {
		t.Errorf("MiBench FU stalls must rise under recycling: %.3f -> %.3f", base, red)
	}

	// Claim 5: headline band — MiBench Big mean within the paper's overall
	// 5-25%% envelope.
	if m := g.ClassMeanSpeedup(ClassMiB, "Big"); m < 5 || m > 30 {
		t.Errorf("MiBench Big mean %+.1f%% outside the sanity band", m)
	}
}

// TestClaimPrecisionKnee pins the Sec. V claim: 3-bit slack precision
// captures the large majority of the asymptotic gain.
func TestClaimPrecisionKnee(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep run")
	}
	var probe Benchmark
	for _, b := range Benchmarks(Quick) {
		if b.Name == "bitcnt" {
			probe = b
		}
	}
	gain := func(bits int) float64 {
		cfg := ooo.BigConfig()
		cfg.PrecisionBits = bits
		base, err := ooo.Run(cfg.WithPolicy(ooo.PolicyBaseline), probe.Prog)
		if err != nil {
			t.Fatal(err)
		}
		red, err := ooo.Run(cfg.WithPolicy(ooo.PolicyRedsoc), probe.Prog)
		if err != nil {
			t.Fatal(err)
		}
		return red.SpeedupOver(base) - 1
	}
	g1, g3, g8 := gain(1), gain(3), gain(timing.MaxPrecisionBits)
	if g3 < 0.85*g8 {
		t.Errorf("3-bit gain %.3f captures only %.0f%% of the 8-bit gain %.3f",
			g3, 100*g3/g8, g8)
	}
	if g1 >= g3 {
		t.Errorf("1-bit precision (%.3f) must trail 3-bit (%.3f)", g1, g3)
	}
}
