// Package campaign is the shared concurrent-campaign engine behind every
// grid-shaped evaluation in this repository: the harness's benchmarks ×
// cores × policies grid, the Sec. VI-C threshold and Sec. V precision
// sweeps, and the redsoc-chaos seeds × rates × benchmarks fault campaigns.
// The cell simulations are embarrassingly parallel — each ooo.Run owns its
// whole machine state and every random draw comes from a task-local seeded
// generator — so the engine's one hard obligation is that parallelism never
// shows: results are merged by task index, progress is reported in task
// index order, and a campaign run with one worker is bit-identical to the
// same campaign run with N.
//
// A slow cell has one bound (Options.Timeout): a per-task deadline carried
// by the task's context, which the simulator polls, so a cell that overruns
// it stops and fails attributed, naming where its simulation stopped. Each
// task runs once: every task is strictly deterministic, so a cell that
// failed would fail the same way again.
package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Options tunes a campaign run.
type Options[T any] struct {
	// Workers bounds the worker pool. Zero or negative means
	// runtime.NumCPU(); the pool never exceeds the task count.
	Workers int
	// Label, if non-nil, names a task for error and panic attribution.
	Label func(index int) string
	// OnDone, if non-nil, is called exactly once per completed task, from
	// the goroutine that called Run, in task-index order: task i is reported
	// only after tasks 0..i-1 have been reported. This is what keeps
	// progress output byte-identical between one-worker and N-worker runs.
	// Reporting stops at the first task error.
	OnDone func(index int, result T)

	// Timeout, when positive, bounds each task with context.WithTimeout on
	// the context the task receives. A task that honours its context (a
	// simulation polls it) stops at the deadline, and the campaign fails
	// with a *TimeoutError — a genuine, attributed failure, never mistaken
	// for a collateral cancellation. It is the one bound on a slow task:
	// between its start and its end a task is one deterministic computation
	// that polls its context, so there is nothing else to watch.
	Timeout time.Duration
}

// TaskError attributes a failed task. Run returns the failure of the
// lowest-indexed task that produced a genuine error, so the reported error
// is the same no matter how many workers raced. When the underlying failure
// is a panic, the message includes the panic site's trimmed stack.
type TaskError struct {
	Index int
	Label string
	Err   error
}

func (e *TaskError) Error() string {
	msg := fmt.Sprintf("campaign: task %d: %v", e.Index, e.Err)
	if e.Label != "" {
		msg = fmt.Sprintf("campaign: task %d (%s): %v", e.Index, e.Label, e.Err)
	}
	var pe *PanicError
	if errors.As(e.Err, &pe) {
		if stack := pe.TaskStack(); stack != "" {
			msg += "\n" + stack
		}
	}
	return msg
}

func (e *TaskError) Unwrap() error { return e.Err }

// PanicError is the error a task produces by panicking; the worker recovers
// it so one bad cell cannot take down a whole campaign unattributed.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// TaskStack trims the recovered stack to the frames below the panic site —
// the task's own frames, without the goroutine header and the recovery
// machinery above it — so error output points straight at the culprit.
func (e *PanicError) TaskStack() string {
	lines := bytes.Split(bytes.TrimRight(e.Stack, "\n"), []byte("\n"))
	// debug.Stack inside the deferred recover yields:
	//   goroutine N [running]:
	//   runtime/debug.Stack(...)
	//   <recovery frames>
	//   panic(...)
	//   <task frames>        <- keep these
	// Keep everything after the last "panic(" frame line (each frame is a
	// function line plus a tab-indented location line).
	start := 0
	for i, l := range lines {
		if bytes.HasPrefix(l, []byte("panic(")) {
			start = i + 2 // skip the panic() frame and its location line
		}
	}
	if start <= 0 || start >= len(lines) {
		return string(bytes.Join(lines, []byte("\n")))
	}
	kept := lines[start:]
	// Below the task's own frames sit the engine's: runRecovered, runTask,
	// the worker goroutine and its "created by" trailer. Cut there.
	for i, l := range kept {
		if bytes.Contains(l, []byte(".runRecovered[")) {
			kept = kept[:i]
			break
		}
	}
	const maxFrames = 16 // 8 call sites: function line + location line each
	if len(kept) > maxFrames {
		kept = kept[:maxFrames]
	}
	return string(bytes.Join(kept, []byte("\n")))
}

// TimeoutError is the genuine failure of a task that overran its per-task
// deadline. It deliberately does not unwrap — not to Err, and so not to
// context.DeadlineExceeded: the engine treats context errors as collateral
// damage of a campaign teardown, and an exceeded per-cell deadline is the
// opposite — it is the cell's own, attributable failure.
type TimeoutError struct {
	// Timeout is the per-task deadline that was exceeded.
	Timeout time.Duration
	// Err is the error the task stopped with, kept for its message: a
	// simulation's names the program, core, policy and stop cycle.
	Err error
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("cell exceeded its %v deadline: %v", e.Timeout, e.Err)
}

// CancelledError reports a campaign torn down by its parent context even
// though no task failed on its own: every task that ran succeeded or
// stopped with the teardown's context error. It wraps the context error so
// errors.Is(err, context.Canceled) keeps working.
type CancelledError struct {
	// Done is how many of the N tasks completed before the teardown.
	Done, N int
	Err     error
}

func (e *CancelledError) Error() string {
	return fmt.Sprintf("campaign: cancelled by parent context (%d/%d tasks completed): %v", e.Done, e.N, e.Err)
}

func (e *CancelledError) Unwrap() error { return e.Err }

type outcome struct {
	index int
	err   error
}

// Run executes tasks 0..n-1 on a bounded worker pool and returns their
// results merged by task index — never by completion order. The first task
// error cancels the context handed to the remaining tasks and stops new
// tasks from being scheduled; tasks in flight stop at their next context
// poll. Panics are captured per task and surfaced as a *TaskError wrapping
// a *PanicError. A campaign whose parent context was cancelled, and in
// which no task failed on its own, returns a *CancelledError wrapping the
// context error.
func Run[T any](ctx context.Context, n int, opts Options[T], task func(ctx context.Context, index int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n <= 0 {
		return results, nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	indices := make(chan int)
	outcomes := make(chan outcome)

	// Producer: feed task indices until the campaign is cancelled.
	go func() {
		defer close(indices)
		for i := 0; i < n; i++ {
			select {
			case indices <- i:
			case <-cctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range indices {
				outcomes <- outcome{i, runTask(cctx, opts.Timeout, i, &results[i], task)}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(outcomes)
	}()

	// Collector: merge by index and fan progress in. The collector runs on
	// the caller's goroutine, so OnDone needs no locking of its own; the
	// outcome channel's send/receive ordering makes the worker's write of
	// results[i] visible before OnDone(i) fires.
	done := make([]bool, n)
	completed := 0
	next := 0
	var failed []outcome
	//lint:allow detflow arrival order is consumed order-independently: results merge by index, OnDone fires in index order, and pickError selects the lowest-indexed failure
	for oc := range outcomes {
		if oc.err != nil {
			failed = append(failed, oc)
			cancel()
			continue
		}
		done[oc.index] = true
		completed++
		if opts.OnDone != nil && len(failed) == 0 {
			for next < n && done[next] {
				opts.OnDone(next, results[next])
				next++
			}
		}
	}

	if err := pickError(failed, opts.Label, ctx.Err() != nil); err != nil {
		return results, err
	}
	// No task failed on its own; report a parent cancellation (if any)
	// wrapped and attributed to the campaign rather than as a bare context
	// error.
	if err := ctx.Err(); err != nil {
		return results, &CancelledError{Done: completed, N: n, Err: err}
	}
	return results, nil
}

// errCellDeadline is the cause of a task context that ended at the task's
// own Options.Timeout deadline, before the campaign was torn down.
var errCellDeadline = errors.New("campaign: cell deadline")

// runTask runs task i once, under the per-task deadline when one is set,
// and writes its result slot only on success. A task that stopped at its
// own deadline fails with the cell's *TimeoutError even if the campaign was
// torn down before it returned: the context's cause records what ended it
// first.
func runTask[T any](ctx context.Context, timeout time.Duration, i int, dst *T, task func(context.Context, int) (T, error)) error {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, timeout, errCellDeadline)
		defer cancel()
	}
	v, err := runRecovered(ctx, i, task)
	switch {
	case err == nil:
		*dst = v
	case errors.Is(err, context.DeadlineExceeded) && context.Cause(ctx) == errCellDeadline:
		return &TimeoutError{Timeout: timeout, Err: err}
	}
	return err
}

// runRecovered executes one task, converting a panic into an error
// so the worker pool survives and the campaign can name the culprit.
func runRecovered[T any](ctx context.Context, i int, task func(context.Context, int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return task(ctx, i)
}

// pickError chooses the campaign's reported failure deterministically: the
// lowest-indexed task with a genuine error. Context errors are collateral —
// a task stopped because the campaign was being torn down — and are only
// reported when no genuine error exists and the parent context is live;
// after a parent cancellation Run reports a *CancelledError instead. A
// *TimeoutError is genuine: it is a cell's own exceeded deadline, not
// teardown collateral.
func pickError(failed []outcome, label func(int) string, parentDone bool) error {
	best, bestGenuine := -1, false
	for k, oc := range failed {
		genuine := !errors.Is(oc.err, context.Canceled) && !errors.Is(oc.err, context.DeadlineExceeded)
		if best < 0 || genuine && !bestGenuine || genuine == bestGenuine && oc.index < failed[best].index {
			best, bestGenuine = k, genuine
		}
	}
	if best < 0 || !bestGenuine && parentDone {
		return nil
	}
	te := &TaskError{Index: failed[best].index, Err: failed[best].err}
	if label != nil {
		te.Label = label(te.Index)
	}
	return te
}
