package ooo

import (
	"fmt"
	"strings"

	"redsoc/internal/core"
	"redsoc/internal/timing"
)

// Policy selects the scheduling mechanism under test.
type Policy uint8

const (
	// PolicyBaseline is the conventional timing-conservative core: every
	// operation clocks at cycle boundaries.
	PolicyBaseline Policy = iota
	// PolicyRedsoc enables slack recycling per the core.Params.
	PolicyRedsoc
	// PolicyMOS is the Multiple-Operations-in-Single-cycle comparator
	// (dynamic operation fusion, Sec. VI-D).
	PolicyMOS
	// PolicyLoadDelay schedules load consumers by real-time load-delay
	// tracking (Diavastos & Carlson): each static load's last observed delay
	// is broadcast as its completion instant, and under-tracked delays are
	// recovered through the Razor-style operand detectors and selective
	// reissue — the completion instants on the wakeup bus become dynamic,
	// history-dependent values instead of static LUT entries.
	PolicyLoadDelay
	// PolicySpecLSQ allocates LSQ entries speculatively (Szafarczyk et al.):
	// store-to-load forwarding runs at LSQ-read latency rather than a cache
	// probe, and a forwardable load may request issue eagerly alongside its
	// store, squashing as a misallocation when the store has not executed.
	PolicySpecLSQ

	// NumPolicies counts the policies; every Policy below it has a row in
	// the policy table.
	NumPolicies
)

// policySpec is one policy's row of the policy table: every way a policy
// differs from the baseline, as data. Each policy answers where a consumer's
// wakeup instant comes from — the LUT slack estimate (redsoc), the tracked
// load delay (loaddelay), the LSQ read (speclsq) or the fused producer
// (mos) — and New resolves its row once into plain Simulator fields, so the
// hot path tests fields, never the policy.
type policySpec struct {
	name string // the flag name String prints and ParsePolicy reads
	// recycles runs the scheduler and the estimator with Config.Redsoc
	// (see params); predictsWidth gives a non-recycling policy's estimator
	// width prediction, which MOS fusion windows need.
	recycles, predictsWidth bool
	// fuses, tracksLoadDelay and specLSQ switch on the policy's own engine
	// code in mos.go, loaddelay.go and speclsq.go.
	fuses, tracksLoadDelay, specLSQ bool
	// metrics adds the policy's own counters and rates to a snapshot (nil:
	// none). The difftest goldens pin every policy's key set, so a policy's
	// counters appear only under that policy.
	metrics func(r *Result, counters map[string]int64, rates map[string]float64)
}

// policies is the policy table, indexed by Policy.
var policies = [NumPolicies]policySpec{
	PolicyBaseline:  {name: "baseline"},
	PolicyRedsoc:    {name: "redsoc", recycles: true},
	PolicyMOS:       {name: "mos", predictsWidth: true, fuses: true},
	PolicyLoadDelay: {name: "loaddelay", tracksLoadDelay: true, metrics: loadDelayMetrics},
	PolicySpecLSQ:   {name: "speclsq", specLSQ: true, metrics: specLSQMetrics},
}

// String names the policy.
func (p Policy) String() string {
	if p < NumPolicies {
		return policies[p].name
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// PolicyNames lists every policy's flag name, in enum order.
func PolicyNames() []string {
	names := make([]string, 0, NumPolicies)
	for _, ps := range policies {
		names = append(names, ps.name)
	}
	return names
}

// ParsePolicy resolves a policy flag name (as printed by String) to its
// Policy, for the CLIs.
func ParsePolicy(name string) (Policy, error) {
	for p, ps := range policies {
		if ps.name == name {
			return Policy(p), nil
		}
	}
	return 0, fmt.Errorf("ooo: unknown policy %q (available: %s)", name, strings.Join(PolicyNames(), ", "))
}

// params returns the slack parameters the policy schedules with (zero
// unless it recycles) and those its estimator runs with: a core without
// slack hardware still estimates, to classify ops for Fig. 10.
func (ps *policySpec) params(cfg Config, clock timing.Clock) (engine, estimator core.Params) {
	if ps.recycles {
		return cfg.Redsoc, cfg.Redsoc
	}
	estimator = core.DefaultParams(clock)
	estimator.Recycle, estimator.EGPW, estimator.WidthPrediction = false, false, ps.predictsWidth
	return core.Params{}, estimator
}
