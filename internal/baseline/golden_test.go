package baseline_test

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"

	"redsoc/internal/baseline"
	"redsoc/internal/harness"
)

// tsGolden holds one line per quick-grid (benchmark, core): RunTS's chosen
// period, error rate, re-run cycles and speedup, floats written exactly.
const tsGolden = "testdata/ts-quick.txt"

// tsLine formats one benchmark's TS outcome on one core as its golden line.
func tsLine(bench, core string, r baseline.TSResult) string {
	return strings.Join([]string{
		bench, core,
		strconv.Itoa(r.PeriodPS),
		strconv.FormatFloat(r.ErrorRate, 'g', -1, 64),
		strconv.FormatInt(r.Cycles, 10),
		strconv.FormatFloat(r.Speedup, 'g', -1, 64),
	}, " ")
}

// TestTSQuickGolden pins TS on every quick-grid benchmark and core against
// testdata/ts-quick.txt. A mismatch names the benchmark and core and prints
// the replacement line; there is no update flag, so paste printed lines in
// only for an intended change to what TS chooses or re-runs.
func TestTSQuickGolden(t *testing.T) {
	f, err := os.Open(tsGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 6 {
			t.Fatalf("%s: line %q has %d fields, want 6", tsGolden, line, len(fields))
		}
		golden[fields[0]+" "+fields[1]] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, b := range harness.Benchmarks(harness.Quick) {
		for _, cfg := range harness.Cores() {
			n++
			r, err := baseline.RunTS(cfg, b.Prog)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, cfg.Name, err)
			}
			got := tsLine(b.Name, cfg.Name, r)
			if want := golden[b.Name+" "+cfg.Name]; got != want {
				t.Errorf("%s/%s: TS line %q, golden %q; replacement line:\n%s", b.Name, cfg.Name, got, want, got)
			}
		}
	}
	if len(golden) != n {
		t.Errorf("%s has %d lines, want one per quick benchmark and core (%d)", tsGolden, len(golden), n)
	}
}
