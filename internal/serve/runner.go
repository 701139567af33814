package serve

import (
	"encoding/json"
	"runtime"
	"time"

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
// serializes it.
func (j *job) recordCell(ev harness.CellEvent) {
	j.mu.Lock()
	j.cellsDone++
	if ev.Hit {
		j.hits++
	} else {
		j.misses++
	}
	j.mu.Unlock()
	j.log.append(Event{Type: "cell", Kind: ev.Kind, Key: string(ev.Key), Hit: ev.Hit})
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

// runGrid executes a grid job: one harness.Run over the server cache in
// resume mode, with the job's worker bound and event stream. The report
// bytes are exactly what redsoc-bench would write, modulo wall_seconds.
func (s *Server) runGrid(j *job, start time.Time) ([]byte, error) {
	grid, err := harness.Run(s.ctx, j.res.benchmarks, j.res.cores, harness.Options{
		SweepThreshold: j.res.spec.Sweep,
		Workers:        s.jobWorkers(j),
		Journal:        s.store,
		Resume:         true,
		OnCell:         j.recordCell,
		Progress:       func(line string) { j.log.append(Event{Type: "progress", Text: line}) },
	})
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
		OnCell:     j.recordCell,
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
