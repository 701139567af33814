package campaign_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redsoc/internal/campaign"
	"redsoc/internal/ooo"
	"redsoc/internal/workload/spec"
)

// TestTimeoutExhaustedIsGenuine: a cell that overruns its deadline fails
// the campaign with an attributed *TimeoutError — and that error must NOT
// look like a collateral context cancellation, or the lowest-genuine-error
// selection would discard it.
func TestTimeoutExhaustedIsGenuine(t *testing.T) {
	var stats campaign.Stats
	var calls atomic.Int32
	_, err := campaign.Run(context.Background(), 3,
		campaign.Options[int]{
			Workers: 3,
			Label:   func(i int) string { return fmt.Sprintf("cell-%d", i) },
			Timeout: 20 * time.Millisecond,
			Stats:   &stats,
		},
		func(ctx context.Context, i int) (int, error) {
			if i == 1 {
				calls.Add(1)
				campaign.Heartbeat(ctx, "entered infinite loop")
				<-ctx.Done()
				return 0, ctx.Err()
			}
			return i, nil
		})
	var te *campaign.TaskError
	if !errors.As(err, &te) || te.Index != 1 || te.Label != "cell-1" {
		t.Fatalf("err = %v, want *TaskError naming cell-1", err)
	}
	var toe *campaign.TimeoutError
	if !errors.As(err, &toe) || toe.Timeout != 20*time.Millisecond {
		t.Fatalf("err = %v, want wrapped *TimeoutError for the 20ms deadline", err)
	}
	if toe.LastEvent != "entered infinite loop" {
		t.Fatalf("TimeoutError.LastEvent = %q, want the final heartbeat note", toe.LastEvent)
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		t.Fatalf("a cell's exceeded deadline must not unwrap to a context error: %v", err)
	}
	if calls.Load() != 1 || stats.Timeouts.Load() != 1 {
		t.Fatalf("the cell ran %d times and stats counted %d timeouts, want 1 and 1", calls.Load(), stats.Timeouts.Load())
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
	var stats campaign.Stats
	_, err := campaign.Run(context.Background(), 16,
		campaign.Options[int64]{Workers: 4, Timeout: time.Millisecond, Stats: &stats},
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
	if stats.Timeouts.Load() == 0 {
		t.Fatal("stats counted no timeouts")
	}
	deadline := time.Now().Add(100 * time.Millisecond)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines 100ms after Run returned, %d before it: a timed-out simulation kept running", n, before)
	}
}

// TestWatchdogReportsStalledCell arms the watchdog over a cell that
// heartbeats once and then goes silent: the stall report must carry the
// cell's label and that last event, exactly once per episode.
func TestWatchdogReportsStalledCell(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var stalls []campaign.Stall
	var stats campaign.Stats
	_, err := campaign.Run(context.Background(), 1,
		campaign.Options[int]{
			Label:      func(int) string { return "bitcnt/Small" },
			StallAfter: 40 * time.Millisecond,
			Stats:      &stats,
			OnStall: func(s campaign.Stall) {
				mu.Lock()
				stalls = append(stalls, s)
				mu.Unlock()
				select {
				case <-release:
				default:
					close(release)
				}
			},
		},
		func(ctx context.Context, i int) (int, error) {
			campaign.Heartbeat(ctx, "baseline done (5000 cycles)")
			<-release // silent until the watchdog notices
			return 1, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(stalls) == 0 {
		t.Fatal("watchdog never reported the silent cell")
	}
	s := stalls[0]
	if s.Index != 0 || s.Label != "bitcnt/Small" {
		t.Fatalf("stall = %+v, want index 0 labeled bitcnt/Small", s)
	}
	if s.LastEvent != "baseline done (5000 cycles)" {
		t.Fatalf("stall.LastEvent = %q, want the last heartbeat note", s.LastEvent)
	}
	if s.Idle < 40*time.Millisecond {
		t.Fatalf("stall.Idle = %v, want >= StallAfter", s.Idle)
	}
	if stats.Stalls.Load() != int64(len(stalls)) {
		t.Fatalf("stats counted %d stalls, reports saw %d", stats.Stalls.Load(), len(stalls))
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
	var stats campaign.Stats
	_, err := campaign.Run(context.Background(), 1,
		campaign.Options[int]{Label: func(int) string { return "gsm/Medium" }, Stats: &stats},
		func(_ context.Context, i int) (int, error) {
			explodeForStackTest()
			return 0, nil
		})
	if err == nil {
		t.Fatal("want the panic surfaced as an error")
	}
	if stats.Panics.Load() != 1 {
		t.Fatalf("stats counted %d panics, want 1", stats.Panics.Load())
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

// TestHeartbeatOutsideCampaignIsNoop: library code beats unconditionally, so
// a bare context must be safe.
func TestHeartbeatOutsideCampaignIsNoop(t *testing.T) {
	campaign.Heartbeat(context.Background(), "no engine here")
}
