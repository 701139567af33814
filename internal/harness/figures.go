package harness

import (
	"fmt"
	"math/rand"

	"redsoc/internal/adder"
	"redsoc/internal/isa"
	"redsoc/internal/ooo"
	"redsoc/internal/stats"
	"redsoc/internal/timing"
)

// PaperFig13Means are the class-mean speedups (percent) the paper reports in
// Fig. 13 for Big/Medium/Small.
var PaperFig13Means = map[Class]map[string]float64{
	ClassSPEC: {"Big": 12, "Medium": 8, "Small": 4},
	ClassMiB:  {"Big": 23, "Medium": 17, "Small": 9},
	ClassML:   {"Big": 13, "Medium": 9, "Small": 6},
}

// Fig1Table renders the per-opcode computation times of Fig. 1 (model ps at
// the 500 ps clock, plus their quantized tick/bucket view).
func Fig1Table() *stats.Table {
	clock := timing.MustClock(timing.DefaultPrecisionBits)
	lut := timing.NewLUT(clock)
	t := stats.NewTable("Fig. 1 — ALU computation times (modeled, 2 GHz)",
		"op", "class", "delay ps (w64)", "delay ps (w8)", "LUT bucket", "EX-TIME ticks")
	for _, op := range isa.ALUOps() {
		d64 := timing.OpDelayPS(op, isa.Width64)
		d8 := timing.OpDelayPS(op, isa.Width8)
		addr := timing.InstrAddress(op, isa.Width64, isa.Lane0)
		t.Row(op, op.Class(), d64, d8, timing.BucketOf(addr), int(lut.CompTicks(addr)))
	}
	return t
}

// Fig2Table renders the Kogge–Stone critical path versus effective operand
// width from the gate-level netlist (Fig. 2).
func Fig2Table() *stats.Table {
	t := stats.NewTable("Fig. 2 — KS-adder critical path vs effective width (gate units)",
		"effective width", "mean activated delay", "worst case (static)")
	ad := adder.New(64)
	rng := rand.New(rand.NewSource(2))
	worst := ad.WorstCaseDelay()
	for _, w := range []uint{2, 4, 8, 12, 16, 24, 32, 48, 63} {
		mask := uint64(1)<<w - 1
		sum := 0
		const n = 400
		for i := 0; i < n; i++ {
			sum += ad.Add(rng.Uint64()&mask, rng.Uint64()&mask).CriticalDelay
		}
		t.Row(int(w), fmt.Sprintf("%.1f", float64(sum)/n), worst)
	}
	return t
}

// TopologyTable compares carry-network topologies on the timed netlist:
// static worst case vs the activated path for narrow operands — data slack
// survives across topologies.
func TopologyTable() *stats.Table {
	t := stats.NewTable("Adder topologies — worst case vs activated path (gate units)",
		"topology", "gates", "worst case", "mean @ w4", "mean @ w16", "mean @ w63")
	rng := rand.New(rand.NewSource(4))
	avg := func(ad *adder.Adder, width uint) string {
		mask := uint64(1)<<width - 1
		sum := 0
		const n = 300
		for i := 0; i < n; i++ {
			sum += ad.Add(rng.Uint64()&mask, rng.Uint64()&mask).CriticalDelay
		}
		return fmt.Sprintf("%.1f", float64(sum)/n)
	}
	for _, row := range []struct {
		name string
		ad   *adder.Adder
	}{
		{"Kogge-Stone", adder.New(64)},
		{"Brent-Kung", adder.NewBrentKung(64)},
		{"ripple-carry", adder.NewRipple(64)},
	} {
		t.Row(row.name, row.ad.Gates(), row.ad.WorstCaseDelay(),
			avg(row.ad, 4), avg(row.ad, 16), avg(row.ad, 63))
	}
	return t
}

// Fig3Table renders the slack LUT: every reachable bucket with its
// computation time (Fig. 3 / Sec. II-B).
func Fig3Table() *stats.Table {
	clock := timing.MustClock(timing.DefaultPrecisionBits)
	lut := timing.NewLUT(clock)
	t := stats.NewTable("Fig. 3 — slack LUT (14 buckets, 3-bit EX-TIMEs)",
		"bucket", "worst delay ps", "EX-TIME ticks", "slack ticks")
	seen := map[timing.Bucket]bool{}
	for a := timing.Address(0); a < 32; a++ {
		b := timing.BucketOf(a)
		if seen[b] {
			continue
		}
		seen[b] = true
		t.Row(b, lut.BucketPS(b), int(lut.CompTicks(a)), int(lut.SlackTicks(a)))
	}
	return t
}

// TableITable renders the core configurations.
func TableITable() *stats.Table {
	t := stats.NewTable("Table I — processor baselines",
		"parameter", "Small", "Medium", "Big")
	s, m, b := ooo.SmallConfig(), ooo.MediumConfig(), ooo.BigConfig()
	t.Row("Front-End Width", s.FrontEndWidth, m.FrontEndWidth, b.FrontEndWidth)
	t.Row("ROB/LSQ/RSE",
		fmt.Sprintf("%d/%d/%d", s.ROBSize, s.LSQSize, s.RSESize),
		fmt.Sprintf("%d/%d/%d", m.ROBSize, m.LSQSize, m.RSESize),
		fmt.Sprintf("%d/%d/%d", b.ROBSize, b.LSQSize, b.RSESize))
	t.Row("ALU/SIMD/FP",
		fmt.Sprintf("%d/%d/%d", s.NumALU, s.NumSIMD, s.NumFP),
		fmt.Sprintf("%d/%d/%d", m.NumALU, m.NumSIMD, m.NumFP),
		fmt.Sprintf("%d/%d/%d", b.NumALU, b.NumSIMD, b.NumFP))
	t.Row("Mem ports", s.NumMemPorts, m.NumMemPorts, b.NumMemPorts)
	t.Row("L1/L2", "64kB/2MB w/ prefetch", "64kB/2MB w/ prefetch", "64kB/2MB w/ prefetch")
	return t
}

// Fig10Table renders the measured operation mix per benchmark.
func (g *Grid) Fig10Table() *stats.Table {
	t := stats.NewTable("Fig. 10 — benchmark operation characteristics (measured)",
		"benchmark", "MEM-HL", "MEM-LL", "SIMD", "OtherMulti", "ALU-LS", "ALU-HS")
	done := map[string]bool{}
	for _, c := range g.Cells {
		if done[c.Benchmark.Name] {
			continue
		}
		done[c.Benchmark.Name] = true
		m := c.Cmp.Runs[ooo.PolicyBaseline].Mix
		tot := float64(m.Total())
		t.Row(c.Benchmark.Name,
			stats.Pct(float64(m.MemHL)/tot), stats.Pct(float64(m.MemLL)/tot),
			stats.Pct(float64(m.SIMD)/tot), stats.Pct(float64(m.OtherMulti)/tot),
			stats.Pct(float64(m.ALULS)/tot), stats.Pct(float64(m.ALUHS)/tot))
	}
	return t
}

// Fig11Table renders the expected transparent-sequence length per class and
// core (paper: 4–6 ops).
func (g *Grid) Fig11Table() *stats.Table {
	t := stats.NewTable("Fig. 11 — EV of transparent sequence length",
		"class", "core", "EV length", "sequences", "paper")
	for _, class := range Classes() {
		for _, core := range []string{"Big", "Medium", "Small"} {
			st := g.schedStats(class, core)
			t.Row(string(class), core, st.seqEV, st.seqs, "4-6")
		}
	}
	return t
}

// Fig12Table renders last-arrival (P/GP) tag misprediction rates.
func (g *Grid) Fig12Table() *stats.Table {
	t := stats.NewTable("Fig. 12 — P/GP last-arrival tag misprediction",
		"class", "core", "mispredict %", "paper")
	for _, class := range Classes() {
		for _, core := range []string{"Big", "Medium", "Small"} {
			t.Row(string(class), core, stats.Pct(g.schedStats(class, core).tagMispredict), "~1-3%")
		}
	}
	return t
}

// schedStats are one class × core's scheduler statistics, over its cells:
// Fig. 11's mean expected transparent-sequence length and sequence count,
// Fig. 12's last-arrival tag misprediction rate and Fig. 14's mean FU stall
// rates, each under ReDSOC (and Fig. 14's under the baseline too).
type schedStats struct {
	seqEV, tagMispredict, stallBase, stallRedsoc float64
	seqs                                         uint64
}

func (g *Grid) schedStats(class Class, core string) schedStats {
	var st schedStats
	var evs, sb, sr []float64
	var wrong, lookups uint64
	for _, c := range g.CellsOf(class, core) {
		red := c.Cmp.Runs[ooo.PolicyRedsoc]
		evs = append(evs, red.Sequences.ExpectedLength())
		st.seqs += red.Sequences.Count()
		wrong += red.LastArrival.Mispredictions
		lookups += red.LastArrival.Lookups
		sb = append(sb, c.Cmp.Runs[ooo.PolicyBaseline].FUStallRate())
		sr = append(sr, red.FUStallRate())
	}
	if lookups > 0 {
		st.tagMispredict = float64(wrong) / float64(lookups)
	}
	st.seqEV, st.stallBase, st.stallRedsoc = stats.Mean(evs), stats.Mean(sb), stats.Mean(sr)
	return st
}

// Fig13Table renders per-benchmark speedups plus class means against the
// paper's means.
func (g *Grid) Fig13Table() *stats.Table {
	t := stats.NewTable("Fig. 13 — ReDSOC speedup over baseline",
		"benchmark", "Big", "Medium", "Small")
	names := g.benchmarkNames()
	for _, n := range names {
		row := []any{n}
		for _, core := range []string{"Big", "Medium", "Small"} {
			row = append(row, g.redsocCell(n, core))
		}
		t.Row(row...)
	}
	for _, class := range Classes() {
		row := []any{string(class) + "-MEAN"}
		for _, core := range []string{"Big", "Medium", "Small"} {
			row = append(row, fmt.Sprintf("%+.1f%% (paper %+.0f%%)",
				g.ClassMeanSpeedup(class, core), PaperFig13Means[class][core]))
		}
		t.Row(row...)
	}
	return t
}

// Fig14Table renders FU-busy stall rates, baseline vs ReDSOC.
func (g *Grid) Fig14Table() *stats.Table {
	t := stats.NewTable("Fig. 14 — FU stalling rate (baseline vs ReDSOC)",
		"core:class", "baseline", "redsoc")
	for _, core := range []string{"Big", "Medium", "Small"} {
		for _, class := range Classes() {
			st := g.schedStats(class, core)
			t.Row(fmt.Sprintf("%s:%s", core, class), stats.Pct(st.stallBase), stats.Pct(st.stallRedsoc))
		}
	}
	return t
}

// Fig15Table renders the ReDSOC/TS/MOS comparison (class means per core).
func (g *Grid) Fig15Table() *stats.Table {
	t := stats.NewTable("Fig. 15 — comparison with other proposals (mean speedup)",
		"core:class", "ReDSOC", "TS", "MOS")
	for _, core := range []string{"Big", "Medium", "Small"} {
		for _, class := range Classes() {
			rd, ts, mos := g.fig15Means(class, core)
			t.Row(fmt.Sprintf("%s:%s", core, class),
				fmt.Sprintf("%+.1f%%", rd), fmt.Sprintf("%+.1f%%", ts), fmt.Sprintf("%+.1f%%", mos))
		}
	}
	return t
}

// redsocCell formats benchmark name's ReDSOC speedup on core for Fig. 13,
// "-" when the grid has no such cell.
func (g *Grid) redsocCell(name, core string) string {
	for _, c := range g.CellsOf("", core) {
		if c.Benchmark.Name == name {
			return fmt.Sprintf("%+.1f%%", 100*(c.Cmp.Speedup(ooo.PolicyRedsoc)-1))
		}
	}
	return "-"
}

// fig15Means returns one class × core's mean ReDSOC, TS and MOS speedups,
// in percent over the baseline (Fig. 15).
func (g *Grid) fig15Means(class Class, core string) (rd, ts, mos float64) {
	var r, t, m []float64
	for _, c := range g.CellsOf(class, core) {
		r = append(r, 100*(c.Cmp.Speedup(ooo.PolicyRedsoc)-1))
		t = append(t, 100*(c.Cmp.TS.Speedup-1))
		m = append(m, 100*(c.Cmp.Speedup(ooo.PolicyMOS)-1))
	}
	return stats.Mean(r), stats.Mean(t), stats.Mean(m)
}

// PowerTable converts class-mean speedups into iso-performance power savings
// (Sec. VI-C).
func (g *Grid) PowerTable() *stats.Table {
	t := stats.NewTable("Sec. VI-C — iso-performance power savings (A57 V/F model)",
		"class", "core", "speedup", "power saving", "paper range")
	ranges := map[Class]string{ClassSPEC: "8-15%", ClassMiB: "12-36%", ClassML: "8-18%"}
	for _, class := range Classes() {
		for _, core := range []string{"Big", "Medium", "Small"} {
			sp := 1 + g.ClassMeanSpeedup(class, core)/100
			t.Row(string(class), core, fmt.Sprintf("%.3f", sp),
				stats.Pct(stats.PowerSavings(sp, timing.FrequencyGHz)), ranges[class])
		}
	}
	return t
}

// ThresholdTable reports the Sec. VI-C design-sweep outcome.
func (g *Grid) ThresholdTable() *stats.Table {
	t := stats.NewTable("Sec. VI-C — tuned slack threshold (ticks of 8)",
		"class", "Big", "Medium", "Small")
	for _, class := range Classes() {
		m := g.ChosenThreshold[class]
		if m == nil {
			continue
		}
		t.Row(string(class), m["Big"], m["Medium"], m["Small"])
	}
	return t
}

// PrecisionSweep runs one benchmark across slack-tracking precisions and
// reports speedup per precision (paper: saturates at 3 bits).
func PrecisionSweep(prog *isa.Program, cfg ooo.Config, bitsList []int) (*stats.Table, error) {
	t := stats.NewTable("Sec. V — slack precision sweep ("+prog.Name+", "+cfg.Name+")",
		"precision bits", "ticks/cycle", "speedup vs baseline")
	for _, bits := range bitsList {
		c := cfg
		c.PrecisionBits = bits
		base, err := ooo.Run(c.WithPolicy(ooo.PolicyBaseline), prog)
		if err != nil {
			return nil, err
		}
		red, err := ooo.Run(c.WithPolicy(ooo.PolicyRedsoc), prog)
		if err != nil {
			return nil, err
		}
		t.Row(bits, 1<<bits, fmt.Sprintf("%+.2f%%", 100*(red.SpeedupOver(base)-1)))
	}
	return t, nil
}

// OverheadTable renders the Sec. II-B / IV-E hardware cost accounting.
func OverheadTable() *stats.Table {
	t := stats.NewTable("Sec. II-B / IV-E — hardware overheads", "component", "cost")
	rse := stats.OperationalRSEOverhead()
	sel := stats.SkewedSelectOverhead()
	est := stats.SlackEstimationOverhead()
	t.Row("RSE extra bits (Operational)", fmt.Sprintf("%d bits + %d 3-bit adders", rse.ExtraBits, rse.Adders))
	t.Row("RSE area / energy", fmt.Sprintf("%.1f%% / %.1f%%", rse.AreaPct, rse.EnergyPct))
	t.Row("Skewed select delay", fmt.Sprintf("+%d ps on %d ps arbiter", sel.ExtraPS, sel.BaselinePS))
	t.Row("Slack LUT", fmt.Sprintf("%d x %d-bit entries", est.LUTEntries, est.LUTBitsPerEntry))
	t.Row("Width predictor state", fmt.Sprintf("%d bytes", est.PredictorBytes))
	t.Row("Estimation area / access energy", fmt.Sprintf("%.2f%% / %.2f%%", est.AreaPct, est.AccessEnergyPct))
	return t
}

func (g *Grid) benchmarkNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, c := range g.Cells {
		if !seen[c.Benchmark.Name] {
			seen[c.Benchmark.Name] = true
			names = append(names, c.Benchmark.Name)
		}
	}
	return names
}
