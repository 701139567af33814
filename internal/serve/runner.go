package serve

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"redsoc/internal/campaign"
	"redsoc/internal/chaos"
	"redsoc/internal/harness"
)

// execute runs one claimed job to completion. Every job runs with the
// shared journal armed in resume mode — the content-addressed cache IS the
// service: a cell any previous job computed (same core config, workload
// fingerprint, policy set, threshold/seed) is served verified from disk,
// and determinism makes the substitution exact, so a repeated job costs
// zero simulations and returns byte-identical results.
func (s *Server) execute(j *job) {
	j.setState(StateRunning)
	start := time.Now() //lint:allow detflow wall time is operator diagnostics; every equality contract excludes wall_seconds
	var report []byte
	var err error
	switch j.res.spec.Type {
	case "chaos":
		report, err = s.runChaos(j)
	default:
		report, err = s.runGrid(j, start)
	}
	wall := time.Since(start).Seconds()
	if err != nil {
		j.fail(err.Error(), wall)
	} else {
		j.finish(report, wall)
	}
	j.log.close()
}

// recordCell folds one campaign cell event into the job's counters and
// event stream. It fires from campaign worker goroutines; the job lock
// serializes it. merge marks the merge pass of a sharded job: its units
// are reassembly, not cache traffic, and any it had to simulate is a
// merge miss. Its events are typed "merge-cell", so a stream consumer can
// tell shard computation from merge reassembly.
func (j *job) recordCell(ev harness.CellEvent, merge bool) {
	j.mu.Lock()
	j.cellsDone++
	switch {
	case merge:
		if !ev.Hit {
			j.mergeMisses++
		}
	case ev.Hit:
		j.hits++
	default:
		j.misses++
	}
	j.mu.Unlock()
	eventType := "cell"
	if merge {
		eventType = "merge-cell"
	}
	j.log.append(Event{Type: eventType, Kind: ev.Kind, Key: string(ev.Key), Hit: ev.Hit})
}

// gridOptions assembles the harness options every grid phase of a job
// shares: the server cache in resume mode, the job's worker bound, and the
// job's event stream.
func (s *Server) gridOptions(j *job, shard campaign.Shard, merge bool) harness.Options {
	return harness.Options{
		SweepThreshold: j.res.spec.Sweep,
		Workers:        s.jobWorkers(j),
		Journal:        s.store,
		Resume:         true,
		Shard:          shard,
		OnCell:         func(ev harness.CellEvent) { j.recordCell(ev, merge) },
		Progress:       func(line string) { j.log.append(Event{Type: "progress", Text: line}) },
	}
}

// jobWorkers resolves a job's campaign worker count under the server cap.
func (s *Server) jobWorkers(j *job) int {
	w := j.res.spec.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if s.cfg.Workers > 0 && w > s.cfg.Workers {
		w = s.cfg.Workers
	}
	return w
}

// runGrid executes a grid job: unsharded, one harness.Run; sharded, N
// concurrent shard runs over the shared cache followed by a merge pass that
// reassembles the full grid by index (all cache hits when the shards
// delivered). Either way the report bytes are exactly what redsoc-bench
// would write, modulo wall_seconds.
func (s *Server) runGrid(j *job, start time.Time) ([]byte, error) {
	n := j.res.spec.Shards
	if n >= 2 {
		var wg sync.WaitGroup
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				opts := s.gridOptions(j, campaign.Shard{Index: i, Count: n}, false)
				opts.Progress = nil // shard progress interleaves; the merge pass reports in grid order
				_, errs[i] = harness.Run(s.ctx, j.res.benchmarks, j.res.cores, opts)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("serve: shard %d/%d: %w", i, n, err)
			}
		}
		j.log.append(Event{Type: "progress", Text: fmt.Sprintf("%d shards complete; merging by index", n)})
	}

	// The merge pass — or, unsharded, the run itself. For a sharded job
	// every unit is already journaled, so this pass serves the whole grid
	// from the cache and only reassembles it in index order.
	opts := s.gridOptions(j, campaign.Shard{}, n >= 2)
	grid, err := harness.Run(s.ctx, j.res.benchmarks, j.res.cores, opts)
	if err != nil {
		return nil, err
	}
	report := grid.Report()
	report.Scale = j.res.spec.Scale
	report.Workers = s.jobWorkers(j)
	report.WallSeconds = time.Since(start).Seconds() //lint:allow detflow wall time is operator diagnostics; stripped before any report comparison
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// chaosReport is the JSON report of a chaos job.
type chaosReport struct {
	ArchFailures int       `json:"arch_failures"`
	Seeds        int       `json:"seeds"`
	Rates        []float64 `json:"rates"`
	Table        string    `json:"table"`
}

// runChaos executes a chaos job on the shared cache.
func (s *Server) runChaos(j *job) ([]byte, error) {
	rep, err := chaos.RunCampaign(s.ctx, chaos.Options{
		Core:       j.res.cores[0],
		Seeds:      j.res.spec.Seeds,
		Rates:      j.res.spec.Rates,
		Benchmarks: j.res.benchmarks,
		Workers:    s.jobWorkers(j),
		Journal:    s.store,
		Resume:     true,
		OnCell:     func(ev harness.CellEvent) { j.recordCell(ev, false) },
	})
	if err != nil {
		return nil, err
	}
	out := chaosReport{
		ArchFailures: rep.ArchFailures,
		Seeds:        j.res.spec.Seeds,
		Rates:        j.res.spec.Rates,
		Table:        rep.Table.String(),
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
