package harness

// The CI bench-regression gate. The repository commits the quick grid's
// exact per-cell cycle counts as .github/bench-baseline.json; the workflow
// re-runs the grid and fails on ANY drift. The simulator is deterministic,
// so exact matching is the right bar: a single-cycle change is a behavioral
// change that either updates the baseline deliberately (go run
// ./cmd/redsoc-bench -quick -update-baseline) or is a regression.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"redsoc/internal/obs"
)

// BaselineCell is the committed record of one benchmark × core cell: the
// exact cycle counts of the five simulated schedulers plus the recycled-op
// count (the paper's headline activity metric, and the most sensitive
// canary for scheduler drift).
type BaselineCell struct {
	BaselineCycles  int64 `json:"baseline_cycles"`
	RedsocCycles    int64 `json:"redsoc_cycles"`
	MOSCycles       int64 `json:"mos_cycles"`
	LoadDelayCycles int64 `json:"loaddelay_cycles"`
	SpecLSQCycles   int64 `json:"speclsq_cycles"`
	RecycledOps     int64 `json:"recycled_ops"`
}

// Baseline is the committed CI performance baseline. Cells is keyed
// "class/benchmark/core"; json's sorted map keys keep the file diff-stable.
type Baseline struct {
	Scale string                  `json:"scale"`
	Cells map[string]BaselineCell `json:"cells"`
}

// baselineKey names a cell in the committed baseline.
func baselineKey(c CellReport) string {
	return c.Class + "/" + c.Benchmark + "/" + c.Core
}

// BaselineOf extracts the committed baseline view of a report.
func BaselineOf(r *Report) *Baseline {
	b := &Baseline{Scale: r.Scale, Cells: map[string]BaselineCell{}}
	for _, c := range r.Cells {
		b.Cells[baselineKey(c)] = BaselineCell{
			BaselineCycles:  c.BaselineCycles,
			RedsocCycles:    c.RedsocCycles,
			MOSCycles:       c.MOSCycles,
			LoadDelayCycles: c.LoadDelayCycles,
			SpecLSQCycles:   c.SpecLSQCycles,
			RecycledOps:     c.RecycledOps,
		}
	}
	return b
}

// Check compares a fresh report against the committed baseline and returns an
// error naming every drifted, missing or unexpected cell (sorted), or nil
// when the report matches exactly.
func (b *Baseline) Check(r *Report) error {
	if r.Scale != b.Scale {
		return fmt.Errorf("baseline gate: report scale %q does not match baseline scale %q", r.Scale, b.Scale)
	}
	got := BaselineOf(r).Cells
	var drifts []string
	for key, want := range b.Cells {
		have, ok := got[key]
		if !ok {
			drifts = append(drifts, fmt.Sprintf("%s: missing from report", key))
			continue
		}
		if have != want {
			drifts = append(drifts, fmt.Sprintf(
				"%s: cycles base %d->%d redsoc %d->%d mos %d->%d loaddelay %d->%d speclsq %d->%d recycled %d->%d",
				key, want.BaselineCycles, have.BaselineCycles,
				want.RedsocCycles, have.RedsocCycles,
				want.MOSCycles, have.MOSCycles,
				want.LoadDelayCycles, have.LoadDelayCycles,
				want.SpecLSQCycles, have.SpecLSQCycles,
				want.RecycledOps, have.RecycledOps))
		}
	}
	for key := range got {
		if _, ok := b.Cells[key]; !ok {
			drifts = append(drifts, fmt.Sprintf("%s: not in baseline (refresh it)", key))
		}
	}
	if len(drifts) == 0 {
		return nil
	}
	sort.Strings(drifts)
	return fmt.Errorf("baseline gate: %d cell(s) drifted:\n  %s", len(drifts), strings.Join(drifts, "\n  "))
}

// WriteBaseline marshals the baseline with stable formatting.
func WriteBaseline(w io.Writer, b *Baseline) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ReadBaseline parses a committed baseline file.
func ReadBaseline(r io.Reader) (*Baseline, error) {
	var b Baseline
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("baseline gate: parse: %w", err)
	}
	return &b, nil
}

// MetricsSet flattens the grid into per-run metrics snapshots, keyed
// "class/benchmark/core/policy" — the deterministic machine-readable view
// redsoc-bench writes alongside the report.
func (g *Grid) MetricsSet(scale string) obs.MetricsSet {
	set := obs.MetricsSet{Scale: scale, Runs: map[string]obs.Metrics{}}
	for _, c := range g.Cells {
		prefix := string(c.Benchmark.Class) + "/" + c.Benchmark.Name + "/" + c.Core + "/"
		for _, r := range c.Cmp.Runs {
			set.Runs[prefix+r.Config.Policy.String()] = r.Metrics(c.Benchmark.Name)
		}
	}
	return set
}
