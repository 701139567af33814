package harness

import (
	"context"
	"sync/atomic"

	"redsoc/internal/isa"
	"redsoc/internal/memo"
	"redsoc/internal/ooo"
)

// runCache is one grid run's compute-once engine-run cache. The Sec. VI-C
// sweep and the grid cells ask for overlapping simulations — a (benchmark,
// core)'s baseline once per sweep candidate, once per cell and once for
// TS's delay histogram, ReDSOC at the chosen threshold in the sweep and in
// the cell — and through the cache each distinct (program, config) runs
// once per Run call. Programs are keyed by pointer: they are the benchmark
// list's own, immutable and alive for the call, and the cache is dropped
// with it. A cached result is shared by every unit that asked for it, so
// results are read-only once returned.
type runCache struct {
	runs memo.Map // runKey -> runOutcome
	// builds counts the engine runs performed (the run-count test reads it).
	builds atomic.Int64
}

type runKey struct {
	prog *isa.Program
	cfg  ooo.Config
}

// runOutcome is a cached run; a simulation error is as deterministic as a
// result, so it is cached too.
type runOutcome struct {
	res *ooo.Result
	err error
}

// run is a baseline.Runner: ooo.RunContext, once per distinct (program,
// config). A run that ctx stopped says nothing about the run, only about
// ctx, so it is returned to this caller alone and never cached: a unit that
// was waiting on it builds the run again under its own context.
func (c *runCache) run(ctx context.Context, cfg ooo.Config, prog *isa.Program) (*ooo.Result, error) {
	out, _ := memo.TryGet(&c.runs, runKey{prog, cfg}, func(k runKey) (runOutcome, bool) {
		c.builds.Add(1)
		res, err := ooo.RunContext(ctx, k.cfg, k.prog)
		return runOutcome{res, err}, err == nil || ctx.Err() == nil
	})
	return out.res, out.err
}
