// Package oooref is the frozen reference engine of the differential harness
// in internal/difftest: a snapshot of internal/ooo as it stood before the
// flat-trace/SoA scheduler representation landed. The entry graph is
// pointer-linked, rename reads isa.Instruction fields directly, and memory
// is the map-backed store. Every generated program must produce
// byte-identical event streams, cycle counts, metrics and architectural
// state through both packages. Do not optimize or extend this package; fix
// bugs only when the live package's fix is itself a behavior change that
// both sides must share.
//
// Its scope is exactly what difftest compares: an ooo.Config under the
// baseline, ReDSOC or MOS policy, fault-free, at a fixed slack threshold.
// The live engine's fault injection, graceful degradation, PVT/CPM model,
// adaptive-threshold controller and dynamic-delay policies have no
// counterpart here, and New refuses a configuration that asks for any of
// them. Their Result fields and metric keys stay, always zero, so a
// reference metrics snapshot has the same keys as a live one.
//
// The model: an idealized-front-end, trace-driven, cycle-level pipeline with
// register renaming, a reorder buffer, a load/store queue with store-to-load
// forwarding, reservation stations with tag-broadcast wakeup and
// oldest-first (optionally skewed) selection, per-class functional-unit
// pools, and sub-cycle completion-instant tracking.
//
// Instructions execute functionally, so architectural results are available
// for cross-scheduler equivalence checks. Branches arrive pre-resolved in
// the trace (no wrong-path modeling), and loads wake their dependents
// non-speculatively when their latency is known — both simplifications apply
// identically to every scheduling policy, so relative comparisons stand.
package oooref

import (
	"fmt"

	"redsoc/internal/ooo"
)

// checkScope validates the configuration as the live engine does, then
// refuses one the reference does not model.
func checkScope(cfg ooo.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	switch cfg.Policy {
	case ooo.PolicyBaseline, ooo.PolicyRedsoc, ooo.PolicyMOS:
	default:
		return fmt.Errorf("oooref: policy %s is outside the reference's scope", cfg.Policy)
	}
	switch {
	case cfg.Fault.Enable:
		return fmt.Errorf("oooref: fault injection is outside the reference's scope")
	case cfg.Degrade.Enable:
		return fmt.Errorf("oooref: graceful degradation is outside the reference's scope")
	case cfg.PVT.Enable:
		return fmt.Errorf("oooref: the PVT guard-band model is outside the reference's scope")
	case cfg.Redsoc.DynamicThreshold:
		return fmt.Errorf("oooref: the dynamic slack threshold is outside the reference's scope")
	}
	return nil
}
