package harness

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"redsoc/internal/baseline"
	"redsoc/internal/ooo"
)

func TestBenchmarkSetShape(t *testing.T) {
	for _, scale := range []Scale{Quick, Full} {
		bs := Benchmarks(scale)
		if len(bs) != 15 {
			t.Fatalf("scale %v: %d benchmarks, want 15", scale, len(bs))
		}
		perClass := map[Class]int{}
		for _, b := range bs {
			perClass[b.Class]++
			if b.Prog.Len() == 0 {
				t.Fatalf("%s: empty program", b.Name)
			}
		}
		for _, c := range Classes() {
			if perClass[c] != 5 {
				t.Fatalf("scale %v: class %s has %d benchmarks", scale, c, perClass[c])
			}
		}
	}
	// Full must be strictly larger than Quick.
	q, f := Benchmarks(Quick), Benchmarks(Full)
	var qn, fn int
	for i := range q {
		qn += q[i].Prog.Len()
		fn += f[i].Prog.Len()
	}
	if fn <= qn {
		t.Fatalf("full (%d instrs) must exceed quick (%d)", fn, qn)
	}
}

func TestStaticTables(t *testing.T) {
	for name, s := range map[string]string{
		"fig1":     Fig1Table().String(),
		"fig2":     Fig2Table().String(),
		"fig3":     Fig3Table().String(),
		"tableI":   TableITable().String(),
		"overhead": OverheadTable().String(),
	} {
		if len(strings.Split(strings.TrimSpace(s), "\n")) < 4 {
			t.Errorf("%s table suspiciously small:\n%s", name, s)
		}
	}
	// Fig. 1 must list all 23 ALU ops.
	if got := strings.Count(Fig1Table().String(), "\n"); got < 23 {
		t.Errorf("Fig. 1 rows = %d", got)
	}
	// Fig. 3 must show 14 buckets.
	if got := len(strings.Split(strings.TrimSpace(Fig3Table().String()), "\n")) - 3; got != 14 {
		t.Errorf("Fig. 3 lists %d buckets, want 14", got)
	}
}

// miniGrid runs a reduced grid (one benchmark per class, two cores) for fast
// structural tests.
func miniGrid(t *testing.T) *Grid {
	t.Helper()
	all := Benchmarks(Quick)
	var bs []Benchmark
	seen := map[Class]bool{}
	for _, b := range all {
		if !seen[b.Class] {
			seen[b.Class] = true
			bs = append(bs, b)
		}
	}
	g, err := Run(context.Background(), bs, []ooo.Config{ooo.BigConfig(), ooo.SmallConfig()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGridTables(t *testing.T) {
	g := miniGrid(t)
	if len(g.Cells) != 6 {
		t.Fatalf("cells = %d, want 3 classes x 2 cores", len(g.Cells))
	}
	for name, s := range map[string]string{
		"fig10": g.Fig10Table().String(),
		"fig11": g.Fig11Table().String(),
		"fig12": g.Fig12Table().String(),
		"fig13": g.Fig13Table().String(),
		"fig14": g.Fig14Table().String(),
		"fig15": g.Fig15Table().String(),
		"power": g.PowerTable().String(),
	} {
		if len(s) < 50 {
			t.Errorf("%s table empty:\n%s", name, s)
		}
	}
	if got := g.CellsOf(ClassMiB, "Big"); len(got) != 1 {
		t.Fatalf("CellsOf filter broken: %d", len(got))
	}
	if g.ClassMeanSpeedup(ClassMiB, "Big") == 0 && g.ClassMeanSpeedup(ClassSPEC, "Big") == 0 {
		t.Error("speedups all zero — grid not exercising ReDSOC")
	}
}

func TestThresholdSweepChoosesCandidates(t *testing.T) {
	all := Benchmarks(Quick)
	var bs []Benchmark
	for _, b := range all {
		if b.Name == "crc" {
			bs = append(bs, b)
		}
	}
	g, err := Run(context.Background(), bs, []ooo.Config{ooo.SmallConfig()}, Options{SweepThreshold: true})
	if err != nil {
		t.Fatal(err)
	}
	th := g.ChosenThreshold[ClassMiB]["Small"]
	ok := false
	for _, c := range ThresholdCandidates {
		if th == c {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("chosen threshold %d not among candidates %v", th, ThresholdCandidates)
	}
	if g.Cells[0].Threshold != th {
		t.Fatal("cells must record the swept threshold")
	}
}

func TestPrecisionSweepTable(t *testing.T) {
	bs := Benchmarks(Quick)
	var prog = bs[0].Prog
	for _, b := range bs {
		if b.Name == "crc" {
			prog = b.Prog
		}
	}
	tab, err := PrecisionSweep(prog, ooo.SmallConfig(), []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	s := tab.String()
	if !strings.Contains(s, "precision") || len(strings.Split(strings.TrimSpace(s), "\n")) != 5 {
		t.Fatalf("sweep table:\n%s", s)
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	all := Benchmarks(Quick)
	var bench Benchmark
	for _, b := range all {
		if b.Name == "bitcnt" {
			bench = b
		}
	}
	// Corrupt the expectation: Run must fail.
	for addr := range bench.WantMem {
		bench.WantMem[addr] ^= 1
	}
	_, err := Run(context.Background(), []Benchmark{bench}, []ooo.Config{ooo.SmallConfig()}, Options{})
	if err == nil {
		t.Fatal("corrupted reference must fail verification")
	}
	if !strings.Contains(err.Error(), "mem[") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestFindBenchmark(t *testing.T) {
	all := Benchmarks(Quick)
	b, err := FindBenchmark(all, "crc")
	if err != nil || b.Name != "crc" || b.Class != ClassMiB {
		t.Fatalf("FindBenchmark(crc) = %+v, %v", b, err)
	}
	if _, err := FindBenchmark(all, "nope"); err == nil {
		t.Fatal("unknown name must error")
	}
	// A duplicated name must be rejected, not silently resolved to either.
	dup := append(all, Benchmark{Class: ClassExtra, Name: "crc", Prog: all[0].Prog})
	if _, err := FindBenchmark(dup, "crc"); err == nil {
		t.Fatal("ambiguous name must error")
	}
}

// TestExtrasVerified runs the beyond-the-paper kernels under all four
// schedulers and checks both directions of reference verification: the
// genuine expectations pass, and a corrupted expectation is caught.
func TestExtrasVerified(t *testing.T) {
	extras := Extras()
	if len(extras) != 3 {
		t.Fatalf("extras = %d kernels, want sha256/dijkstra/qsort", len(extras))
	}
	cfg := ooo.SmallConfig()
	th := cfg.WithPolicy(ooo.PolicyRedsoc).Redsoc.ThresholdTicks
	for _, b := range extras {
		if len(b.WantMem) == 0 {
			t.Fatalf("%s carries no reference values", b.Name)
		}
		cmp, err := baseline.Compare(context.Background(), cfg, b.Prog, th)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if err := verify(b, cmp); err != nil {
			t.Fatalf("%s failed its own reference: %v", b.Name, err)
		}
		for addr := range b.WantMem {
			b.WantMem[addr] ^= 1
		}
		if err := verify(b, cmp); err == nil {
			t.Fatalf("%s: corrupted reference passed verification", b.Name)
		}
	}
}

func TestProgressCallback(t *testing.T) {
	all := Benchmarks(Quick)
	var bs []Benchmark
	for _, b := range all {
		if b.Name == "act" {
			bs = append(bs, b)
		}
	}
	var lines []string
	_, err := Run(context.Background(), bs, []ooo.Config{ooo.SmallConfig()}, Options{
		Progress: func(s string) { lines = append(lines, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "act") {
		t.Fatalf("progress lines = %v", lines)
	}
}

// progressRef is the reference form of a grid cell's progress line, the
// fmt.Sprintf that appendProgress replaces.
func progressRef(class Class, bench, core string, cmp *baseline.Comparison) string {
	return fmt.Sprintf("%-8s %-10s %-7s redsoc %+5.1f%%  ts %+5.1f%%  mos %+5.1f%%  loaddelay %+5.1f%%  speclsq %+5.1f%%",
		class, bench, core,
		100*(cmp.Speedup(ooo.PolicyRedsoc)-1), 100*(cmp.TS.Speedup-1), 100*(cmp.Speedup(ooo.PolicyMOS)-1),
		100*(cmp.Speedup(ooo.PolicyLoadDelay)-1), 100*(cmp.Speedup(ooo.PolicySpecLSQ)-1))
}

// TestProgressLineMatchesSprintf: appendProgress writes exactly the bytes of
// the reference fmt.Sprintf, for every cell of the quick grid and for
// speedups that are negative, zero, round to zero from either side, reach
// 100% and beyond, or are not finite; and it reuses the buffer it is given.
func TestProgressLineMatchesSprintf(t *testing.T) {
	var buf []byte
	check := func(class Class, bench, core string, cmp *baseline.Comparison) {
		t.Helper()
		buf = appendProgress(buf[:0], class, bench, core, cmp)
		if want := progressRef(class, bench, core, cmp); string(buf) != want {
			t.Errorf("progress line\n got %q\nwant %q", buf, want)
		}
	}
	for _, c := range quickGrid(t).Cells {
		check(c.Benchmark.Class, c.Benchmark.Name, c.Core, c.Cmp)
	}
	for _, c := range []struct {
		base, redsoc, mos, loaddelay, speclsq int64
		ts                                    float64
	}{
		{1000, 2000, 1000, 500, 100, 0.5},      // -50%, 0%, +100%, +900%, -50%
		{1000_000, 1000_400, 999_600, 1, 0, 1}, // -0.0, +0.0, +99999900%; zero cycles read as -100%
		{1000, 1000, 1000, 1000, 1000, math.NaN()},
		{1000, 999, 1001, 3, 7, math.Inf(1)},
		{1, 1000, 1000, 1000, 1000, math.Inf(-1)},
	} {
		cmp := &baseline.Comparison{TS: baseline.TSResult{Speedup: c.ts}}
		for p, cycles := range map[ooo.Policy]int64{ooo.PolicyBaseline: c.base, ooo.PolicyRedsoc: c.redsoc,
			ooo.PolicyMOS: c.mos, ooo.PolicyLoadDelay: c.loaddelay, ooo.PolicySpecLSQ: c.speclsq} {
			cmp.Runs[p] = &ooo.Result{Cycles: cycles}
		}
		check("Extra", "strsearch-long", "Medium-wide", cmp)
	}
	cmp := quickGrid(t).Cells[0].Cmp
	if n := testing.AllocsPerRun(10, func() { buf = appendProgress(buf[:0], ClassSPEC, "xalanc", "Big", cmp) }); n != 0 {
		t.Errorf("appendProgress allocates %.1f times into a buffer with room", n)
	}
}
