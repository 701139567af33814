package campaign_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"redsoc/internal/campaign"
	"redsoc/internal/ooo"
	"redsoc/internal/workload/spec"
)

// TestTimeoutExhaustedIsGenuine: a cell whose simulation overruns its
// deadline fails the campaign with an attributed *TimeoutError that names
// where the simulation stopped — and that error must NOT look like a
// collateral context cancellation, or the lowest-genuine-error selection
// would discard it.
func TestTimeoutExhaustedIsGenuine(t *testing.T) {
	prog := spec.Generate(spec.Profiles()[0], 300000, 1)
	cfg := ooo.BigConfig().WithPolicy(ooo.PolicyRedsoc)
	var calls atomic.Int32
	_, err := campaign.Run(context.Background(), 3,
		campaign.Options[int64]{
			Workers: 3,
			Label:   func(i int) string { return fmt.Sprintf("cell-%d", i) },
			Timeout: time.Millisecond,
		},
		func(ctx context.Context, i int) (int64, error) {
			if i != 1 {
				return int64(i), nil
			}
			calls.Add(1)
			res, err := ooo.RunContext(ctx, cfg, prog)
			if err != nil {
				return 0, err
			}
			return res.Cycles, nil
		})
	var te *campaign.TaskError
	if !errors.As(err, &te) || te.Index != 1 || te.Label != "cell-1" {
		t.Fatalf("err = %v, want *TaskError naming cell-1", err)
	}
	var toe *campaign.TimeoutError
	if !errors.As(err, &toe) || toe.Timeout != time.Millisecond {
		t.Fatalf("err = %v, want wrapped *TimeoutError for the 1ms deadline", err)
	}
	msg := toe.Error()
	for _, want := range []string{"exceeded its 1ms deadline", prog.Name, cfg.Name, cfg.Policy.String(), "stopped at cycle"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("TimeoutError %q does not name %q", msg, want)
		}
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		t.Fatalf("a cell's exceeded deadline must not unwrap to a context error: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("the cell ran %d times, want 1", calls.Load())
	}
}

// TestTimeoutOutlivesTeardown: a cell that stopped at its own deadline is
// that cell's failure even when it returns after another cell's failure
// tore the campaign down, so it is still the lowest-indexed genuine error.
func TestTimeoutOutlivesTeardown(t *testing.T) {
	zeroExpired, oneFailed := make(chan struct{}), make(chan struct{})
	_, err := campaign.Run(context.Background(), 2,
		campaign.Options[int]{Workers: 2, Timeout: 10 * time.Millisecond},
		func(ctx context.Context, i int) (int, error) {
			if i == 1 {
				<-zeroExpired
				close(oneFailed)
				return 0, errors.New("boom")
			}
			<-ctx.Done()
			close(zeroExpired)
			<-oneFailed
			time.Sleep(20 * time.Millisecond) // let cell 1's failure tear the campaign down
			return 0, ctx.Err()
		})
	var te *campaign.TaskError
	var toe *campaign.TimeoutError
	if !errors.As(err, &te) || te.Index != 0 || !errors.As(err, &toe) {
		t.Fatalf("err = %v, want cell 0's *TimeoutError", err)
	}
}

// TestTimedOutSimulationsStop is the cell-deadline acceptance: a storm of
// cells running real simulations under a 1 ms deadline leaves no goroutine
// behind once Run returns. Each simulation stops at its next context poll
// instead of running on, abandoned, to the end of its program.
func TestTimedOutSimulationsStop(t *testing.T) {
	prog := spec.Generate(spec.Profiles()[0], 300000, 1)
	before := runtime.NumGoroutine()
	_, err := campaign.Run(context.Background(), 16,
		campaign.Options[int64]{Workers: 4, Timeout: time.Millisecond},
		func(ctx context.Context, i int) (int64, error) {
			res, err := ooo.RunContext(ctx, ooo.BigConfig(), prog)
			if err != nil {
				return 0, err
			}
			return res.Cycles, nil
		})
	var toe *campaign.TimeoutError
	if !errors.As(err, &toe) {
		t.Fatalf("err = %v, want a cell's *TimeoutError", err)
	}
	deadline := time.Now().Add(100 * time.Millisecond)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines 100ms after Run returned, %d before it: a timed-out simulation kept running", n, before)
	}
}

// TestParentCancelMidCampaign is the mid-flight cancellation regression: a
// campaign whose parent is cancelled partway must report a *CancelledError
// that unwraps to context.Canceled and names how far it got — not a bare
// context error, not a task's collateral error, and not success — whether
// the cells in flight finish or stop with their context's error, as a
// simulation does.
func TestParentCancelMidCampaign(t *testing.T) {
	const n = 16
	for _, stops := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		results, err := campaign.Run(ctx, n,
			campaign.Options[int]{
				Workers: 2,
				OnDone: func(i, _ int) {
					if i == 3 {
						cancel() // parent gives up after the first few cells
					}
				},
			},
			func(ctx context.Context, i int) (int, error) {
				if i < 6 {
					return i, nil
				}
				<-ctx.Done() // later cells are in flight during the teardown
				if stops {
					return 0, fmt.Errorf("cell %d stopped: %w", i, ctx.Err())
				}
				return i, nil
			})
		cancel()
		var ce *campaign.CancelledError
		if !errors.As(err, &ce) {
			t.Fatalf("stops=%v: err = %v, want *CancelledError", stops, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("stops=%v: err = %v, must still satisfy errors.Is(err, context.Canceled)", stops, err)
		}
		if ce.N != n || ce.Done < 4 || ce.Done >= n {
			t.Fatalf("stops=%v: CancelledError reports %d/%d done, want partial progress", stops, ce.Done, ce.N)
		}
		if len(results) != n {
			t.Fatalf("stops=%v: results slice has %d slots, want %d (completed prefixes stay usable)", stops, len(results), n)
		}
	}
}

// TestPanicStackTrimmedToTaskFrames: the formatted TaskError must point at
// the panicking task frame, without the goroutine header and recovery
// machinery above the panic site.
func TestPanicStackTrimmedToTaskFrames(t *testing.T) {
	_, err := campaign.Run(context.Background(), 1,
		campaign.Options[int]{Label: func(int) string { return "gsm/Medium" }},
		func(_ context.Context, i int) (int, error) {
			explodeForStackTest()
			return 0, nil
		})
	if err == nil {
		t.Fatal("want the panic surfaced as an error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "gsm/Medium") || !strings.Contains(msg, "slice bounds") && !strings.Contains(msg, "boom") {
		t.Fatalf("error message lacks attribution or panic value:\n%s", msg)
	}
	if !strings.Contains(msg, "explodeForStackTest") {
		t.Fatalf("error message lacks the panic site frame:\n%s", msg)
	}
	if strings.Contains(msg, "goroutine ") || strings.Contains(msg, "debug.Stack") {
		t.Fatalf("stack was not trimmed to task frames:\n%s", msg)
	}
}

//go:noinline
func explodeForStackTest() {
	panic("boom at the panic site")
}
