// Package ooo implements the out-of-order core model ReDSOC is evaluated on:
// an idealized-front-end, trace-driven, cycle-level pipeline with register
// renaming, a reorder buffer, a load/store queue with store-to-load
// forwarding, reservation stations with tag-broadcast wakeup and
// oldest-first (optionally skewed) selection, per-class functional-unit
// pools, and sub-cycle completion-instant tracking. The three Table I cores
// (Small, Medium, Big) are provided as presets.
//
// Instructions execute functionally, so architectural results are available
// for cross-scheduler equivalence checks. Branches arrive pre-resolved in
// the trace (no wrong-path modeling), and loads wake their dependents
// non-speculatively when their latency is known — both simplifications apply
// identically to every scheduling policy, so relative comparisons stand.
package ooo

import (
	"fmt"
	"strings"

	"redsoc/internal/core"
	"redsoc/internal/fault"
	"redsoc/internal/mem"
	"redsoc/internal/predict"
	"redsoc/internal/timing"
)

// Config describes one core. Use SmallConfig/MediumConfig/BigConfig for the
// Table I machines.
type Config struct {
	Name string

	// FrontEndWidth is the per-cycle dispatch and commit bandwidth.
	FrontEndWidth int
	// ROBSize, LSQSize and RSESize size the reorder buffer, load/store
	// queue and reservation stations.
	ROBSize, LSQSize, RSESize int
	// NumALU, NumSIMD, NumFP and NumMemPorts size the functional-unit pools.
	NumALU, NumSIMD, NumFP, NumMemPorts int

	// Mem configures the cache hierarchy.
	Mem mem.Config
	// PVT enables the CPM-driven guard-band model (Sec. V): the slack LUT
	// is recalibrated on the fly as environmental conditions vary, adding
	// PVT slack to the recyclable total.
	PVT timing.PVTConfig
	// PrecisionBits sets the slack-tracking precision (default 3).
	PrecisionBits int

	// Policy picks the scheduler; Redsoc configures it when Policy is
	// PolicyRedsoc.
	Policy Policy
	Redsoc core.Params

	// WidthPredictorEntries and LastArrivalEntries size the predictors
	// (defaults follow the paper). LoadDelayEntries sizes the real-time
	// load-delay tracker PolicyLoadDelay schedules by.
	WidthPredictorEntries int
	LastArrivalEntries    int
	LoadDelayEntries      int

	// Fault configures deterministic, seeded fault injection (robustness
	// campaigns); the zero value injects nothing. Degrade arms the
	// graceful-degradation controller that reverts a FU pool whose
	// violation rate crosses the limit back to baseline conservative
	// timing until its cool-down expires.
	Fault   fault.Config
	Degrade fault.DegradeConfig

	// MaxCycles caps the simulation as a deadlock guard; 0 derives a bound
	// from the trace length.
	MaxCycles int64
}

// withDefaults returns a copy with every unset field filled with its
// default, as New applies them.
func (c Config) withDefaults() Config {
	if c.PrecisionBits == 0 {
		c.PrecisionBits = timing.DefaultPrecisionBits
	}
	if c.Mem.LineBytes == 0 {
		c.Mem = mem.DefaultConfig()
	}
	if c.WidthPredictorEntries == 0 {
		c.WidthPredictorEntries = predict.DefaultWidthEntries
	}
	if c.LastArrivalEntries == 0 {
		c.LastArrivalEntries = predict.DefaultLastArrivalEntries
	}
	if c.LoadDelayEntries == 0 {
		c.LoadDelayEntries = predict.DefaultLoadDelayEntries
	}
	return c
}

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	cc := c.withDefaults()
	if cc.FrontEndWidth < 1 {
		return fmt.Errorf("ooo: front-end width %d < 1", cc.FrontEndWidth)
	}
	if cc.ROBSize < 1 || cc.LSQSize < 1 || cc.RSESize < 1 {
		return fmt.Errorf("ooo: ROB/LSQ/RSE sizes must be positive")
	}
	if cc.NumALU < 1 || cc.NumSIMD < 0 || cc.NumFP < 0 || cc.NumMemPorts < 1 {
		return fmt.Errorf("ooo: FU pool sizes invalid")
	}
	if n := cc.WidthPredictorEntries; n <= 0 || n&(n-1) != 0 {
		return fmt.Errorf("ooo: width predictor entries %d must be a positive power of two", n)
	}
	if n := cc.LastArrivalEntries; n <= 0 || n&(n-1) != 0 {
		return fmt.Errorf("ooo: last-arrival predictor entries %d must be a positive power of two", n)
	}
	if n := cc.LoadDelayEntries; n <= 0 || n&(n-1) != 0 {
		return fmt.Errorf("ooo: load-delay tracker entries %d must be a positive power of two", n)
	}
	if cc.Policy >= NumPolicies {
		return fmt.Errorf("ooo: unknown policy %d", cc.Policy)
	}
	if err := cc.Mem.Validate(); err != nil {
		return err
	}
	if err := cc.Fault.Validate(); err != nil {
		return err
	}
	if err := cc.Degrade.Validate(); err != nil {
		return err
	}
	clock, err := timing.NewClock(cc.PrecisionBits)
	if err != nil {
		return err
	}
	if policies[cc.Policy].recycles {
		if err := cc.Redsoc.Validate(clock); err != nil {
			return err
		}
	}
	return nil
}

// Table I presets. All three cores share the 2 GHz clock and the 64kB/2MB
// memory system with prefetch.

// SmallConfig is the Small core of Table I: width 3, 40/16/32 ROB/LSQ/RSE,
// 3/2/2 ALU/SIMD/FP.
func SmallConfig() Config {
	return Config{
		Name:          "Small",
		FrontEndWidth: 3,
		ROBSize:       40, LSQSize: 16, RSESize: 32,
		NumALU: 3, NumSIMD: 2, NumFP: 2, NumMemPorts: 2,
	}.withDefaults()
}

// MediumConfig is the Medium core of Table I: width 4, 80/32/64, 4/3/3.
func MediumConfig() Config {
	return Config{
		Name:          "Medium",
		FrontEndWidth: 4,
		ROBSize:       80, LSQSize: 32, RSESize: 64,
		NumALU: 4, NumSIMD: 3, NumFP: 3, NumMemPorts: 3,
	}.withDefaults()
}

// BigConfig is the Big core of Table I: width 8, 160/64/128, 6/4/4.
func BigConfig() Config {
	return Config{
		Name:          "Big",
		FrontEndWidth: 8,
		ROBSize:       160, LSQSize: 64, RSESize: 128,
		NumALU: 6, NumSIMD: 4, NumFP: 4, NumMemPorts: 4,
	}.withDefaults()
}

// WithFaults returns a copy that injects every fault class at the given
// per-op rate from the given seed, with the graceful-degradation controller
// armed at its defaults — the setting of the fault-injection campaigns.
func (c Config) WithFaults(rate float64, seed int64) Config {
	c.Fault = fault.Config{
		Enable: true, Seed: seed,
		EstimateRate: rate, DelayRate: rate, LatchRate: rate, PredictorRate: rate,
	}
	c.Degrade = fault.DegradeConfig{Enable: true}
	return c
}

// ParseCore resolves a core flag name (big, medium or small, in any letter
// case) to its Table I configuration, for the CLIs and the service.
func ParseCore(name string) (Config, error) {
	switch strings.ToLower(name) {
	case "big":
		return BigConfig(), nil
	case "medium":
		return MediumConfig(), nil
	case "small":
		return SmallConfig(), nil
	}
	return Config{}, fmt.Errorf("ooo: unknown core %q (available: big, medium, small)", name)
}

// WithPolicy returns a copy configured for the given scheduling policy; for
// a recycling policy (PolicyRedsoc) the paper's default parameters are
// applied.
func (c Config) WithPolicy(p Policy) Config {
	c = c.withDefaults()
	c.Policy = p
	c.Redsoc = core.Params{}
	if p < NumPolicies && policies[p].recycles {
		// An out-of-range precision leaves the params zeroed; Validate (run
		// by ooo.New) reports the precision error itself.
		if clock, err := timing.NewClock(c.PrecisionBits); err == nil {
			c.Redsoc = core.DefaultParams(clock)
		}
	}
	return c
}
