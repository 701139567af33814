// Package serve turns the batch evaluation CLIs into a long-running,
// multi-tenant campaign service: an HTTP/JSON API that accepts grid and
// chaos jobs, executes them on the shared campaign engine behind a
// content-addressed result cache (the cellstore journal — the simulator's
// strict determinism makes a cached cell provably exact, so every repeated
// (config, workload, policy, seed) cell across all tenants is free), a fair
// FIFO-per-tenant queue with a bounded number of concurrent campaigns,
// and per-job progress streamed as NDJSON or SSE. A job's report is
// byte-identical to the batch CLI's at any worker count (modulo
// wall_seconds), under the same merge-by-index determinism contract the -j
// and -shard flags guarantee.
package serve

import (
	"fmt"
	"sort"

	"redsoc/internal/chaos"
	"redsoc/internal/harness"
	"redsoc/internal/ooo"
)

// JobSpec is a submitted evaluation job. The zero spec is the quick grid.
type JobSpec struct {
	// Type is "grid" (default) or "chaos".
	Type string `json:"type,omitempty"`
	// Scale is "quick" (default) or "full"; grid jobs only.
	Scale string `json:"scale,omitempty"`
	// Sweep enables the Sec. VI-C threshold design sweep (grid jobs).
	Sweep bool `json:"sweep,omitempty"`
	// Benchmarks restricts the workload set by name (empty = the full suite
	// for grid jobs, one benchmark per suite for chaos jobs).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Cores restricts the simulated cores ("big", "medium", "small"; empty =
	// all three for grid jobs). Chaos jobs use the first entry (default
	// "medium").
	Cores []string `json:"cores,omitempty"`
	// Workers bounds the campaign worker pool (0 = all CPUs). Results are
	// bit-identical at any worker count.
	Workers int `json:"workers,omitempty"`

	// Seeds and Rates configure chaos jobs (defaults: 3 seeds, rates
	// 0.01 and 0.1 — the CI smoke configuration).
	Seeds int       `json:"seeds,omitempty"`
	Rates []float64 `json:"rates,omitempty"`
}

// job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// resolved is a validated JobSpec with every name resolved to its object —
// resolution happens at submit time so a bad spec is a 400, never a failed
// job discovered minutes later.
type resolved struct {
	spec       JobSpec
	scale      harness.Scale
	benchmarks []harness.Benchmark
	cores      []ooo.Config
	cells      int // planned journal-keyed units of work
}

// resolve validates and resolves a spec against the server's shared suites.
func (s *Server) resolve(spec JobSpec) (*resolved, error) {
	r := &resolved{spec: spec}
	switch spec.Type {
	case "", "grid":
		r.spec.Type = "grid"
	case "chaos":
		r.spec.Type = "chaos"
	default:
		return nil, fmt.Errorf("serve: unknown job type %q (want grid or chaos)", spec.Type)
	}
	switch spec.Scale {
	case "", "quick":
		r.spec.Scale = "quick"
		r.scale = harness.Quick
	case "full":
		r.scale = harness.Full
	default:
		return nil, fmt.Errorf("serve: unknown scale %q (want quick or full)", spec.Scale)
	}
	if spec.Workers < 0 {
		return nil, fmt.Errorf("serve: workers = %d, want >= 0", spec.Workers)
	}

	all := s.suite(r.scale)
	if r.spec.Type == "chaos" && len(spec.Benchmarks) == 0 {
		r.benchmarks = chaos.PickOnePerClass(all)
	} else if len(spec.Benchmarks) == 0 {
		r.benchmarks = all
	} else {
		for _, name := range spec.Benchmarks {
			b, err := harness.FindBenchmark(all, name)
			if err != nil {
				return nil, fmt.Errorf("serve: %w", err)
			}
			r.benchmarks = append(r.benchmarks, b)
		}
	}

	switch {
	case len(spec.Cores) > 0:
		for _, name := range spec.Cores {
			cfg, err := ooo.ParseCore(name)
			if err != nil {
				return nil, fmt.Errorf("serve: %w", err)
			}
			r.cores = append(r.cores, cfg)
		}
	case r.spec.Type == "chaos":
		r.cores = []ooo.Config{ooo.MediumConfig()}
	default:
		r.cores = harness.Cores()
	}

	if r.spec.Type == "chaos" {
		if r.spec.Seeds == 0 {
			r.spec.Seeds = 3
		}
		if r.spec.Seeds < 1 {
			return nil, fmt.Errorf("serve: seeds = %d, want >= 1", r.spec.Seeds)
		}
		if len(r.spec.Rates) == 0 {
			r.spec.Rates = []float64{0.01, 0.1}
		}
		for _, rate := range r.spec.Rates {
			if rate < 0 || rate > 1 {
				return nil, fmt.Errorf("serve: fault rate %g out of [0, 1]", rate)
			}
		}
		r.cells = cellProduct(len(r.benchmarks), len(r.spec.Rates), r.spec.Seeds)
	} else {
		r.cells = cellProduct(len(r.benchmarks), len(r.cores))
		if r.spec.Sweep {
			classes := map[harness.Class]bool{}
			for _, b := range r.benchmarks {
				classes[b.Class] = true
			}
			r.cells += cellProduct(len(classes), len(r.cores), len(harness.ThresholdCandidates))
		}
	}
	if r.cells > maxJobCells {
		return nil, fmt.Errorf("serve: job plans more than %d cells; split it into smaller jobs", maxJobCells)
	}
	return r, nil
}

// maxJobCells caps the journal-keyed units of work one job may plan. The
// full paper grid with the threshold sweep is 81 units, so the cap only
// stops specs that would otherwise make the campaign engine allocate per
// cell without bound — the 1 MiB body cap alone still admits one with a
// billion seeds.
const maxJobCells = 1 << 16

// cellProduct multiplies non-negative counts, saturating just above
// maxJobCells so that no spec can overflow the count.
func cellProduct(counts ...int) int {
	n := 1
	for _, c := range counts {
		n *= min(c, maxJobCells+1)
		n = min(n, maxJobCells+1)
	}
	return n
}

// Status is the externally visible state of one job. Mutable fields are
// snapshotted under the job's lock; the report itself is served by its own
// endpoint so status polls stay small.
type Status struct {
	ID     string  `json:"id"`
	Tenant string  `json:"tenant"`
	State  string  `json:"state"`
	Spec   JobSpec `json:"spec"`
	Error  string  `json:"error,omitempty"`
	// CellsTotal is the planned number of journal-keyed units of work
	// (sweep totals + grid cells, or chaos cells); CellsDone counts
	// completions, and CacheHits/CacheMisses split them by whether the
	// content-addressed cache served the unit or it was simulated.
	CellsTotal  int `json:"cells_total"`
	CellsDone   int `json:"cells_done"`
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// WallSeconds is the job's execution time (0 until it finishes; not
	// deterministic and excluded from every equality contract).
	WallSeconds float64 `json:"wall_seconds"`
}

// sortedTenants returns m's keys in sorted order — map iteration must never
// leak into an API response.
func sortedTenants(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for t := range m { //lint:allow simdeterminism keys are sorted before any consumer sees them
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
