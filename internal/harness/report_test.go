package harness

import (
	"encoding/json"
	"testing"

	"redsoc/internal/ooo"
)

// TestGridReport checks the machine-readable report against the grid it was
// flattened from: cell order, values, class means and thresholds, plus a
// JSON round trip (the BENCH_report.json contract).
func TestGridReport(t *testing.T) {
	g := miniGrid(t)
	r := g.Report()
	if len(r.Cells) != len(g.Cells) {
		t.Fatalf("report has %d cells, grid %d", len(r.Cells), len(g.Cells))
	}
	for i, c := range g.Cells {
		rc := r.Cells[i]
		if rc.Benchmark != c.Benchmark.Name || rc.Core != c.Core || rc.Class != string(c.Benchmark.Class) {
			t.Fatalf("cell %d identity %+v does not match grid cell %s/%s", i, rc, c.Benchmark.Name, c.Core)
		}
		if rc.BaselineCycles != c.Cmp.Runs[ooo.PolicyBaseline].Cycles || rc.RedsocCycles != c.Cmp.Runs[ooo.PolicyRedsoc].Cycles {
			t.Fatalf("cell %d cycles %+v do not match the comparison", i, rc)
		}
		if rc.RedsocSpeedup != c.Cmp.Speedup(ooo.PolicyRedsoc) {
			t.Fatalf("cell %d speedup %v, want %v", i, rc.RedsocSpeedup, c.Cmp.Speedup(ooo.PolicyRedsoc))
		}
		if rc.Threshold != c.Threshold || rc.Instructions == 0 {
			t.Fatalf("cell %d metadata %+v incomplete", i, rc)
		}
	}
	// miniGrid: 3 classes × 2 cores, one benchmark each.
	if len(r.ClassMeans) != 6 {
		t.Fatalf("class means = %d, want 6", len(r.ClassMeans))
	}
	if len(r.Thresholds) != 6 {
		t.Fatalf("thresholds = %d, want 6", len(r.Thresholds))
	}

	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != len(r.Cells) || back.Cells[0] != r.Cells[0] {
		t.Fatalf("JSON round trip lost cells: %+v", back.Cells)
	}

	// Two marshals of reports from the same grid must be byte-identical —
	// the determinism the bench-regression layer depends on.
	data2, err := json.Marshal(g.Report())
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("Report marshaling is nondeterministic")
	}
}
