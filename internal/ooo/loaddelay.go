package ooo

import (
	"redsoc/internal/core"
	"redsoc/internal/timing"
)

// trackLoadDelay returns the tracked delay, in cycles, and the CI a load
// with resolved latency lat broadcasts under PolicyLoadDelay, and trains the
// tracker. Real-time load-delay tracking: the wakeup bus carries a CI built
// from this static load's last observed delay (cold loads assume an L1
// hit), while the caller's honest schedule keeps the resolved latency for
// commit and the detectors. Consumers that issued against an under-tracked
// delay latch early and are caught by their own consumer-side detector
// (trueParentComp uses trueComp, never the broadcast), then selectively
// reissued; over-tracked delays merely wake consumers late.
//
//redsoc:hotpath
func (s *Simulator) trackLoadDelay(e *entry, window, trueReady timing.Ticks, lat int) (predLat int, predComp timing.Ticks) {
	predLat = s.loadPred.Predict(e.pc, s.cfg.Mem.L1Latency)
	predComp = core.PlanSynchronous(s.clock, window, trueReady, s.clock.CyclesToTicks(predLat)).Comp
	s.loadPred.Update(e.pc, predLat, lat)
	s.res.LoadDelayPredicts++
	if predLat != lat {
		s.res.LoadDelayMispredicts++
	}
	return predLat, predComp
}

// loadDelayMetrics adds the load-delay tracker's activity to a metrics
// snapshot.
func loadDelayMetrics(r *Result, c map[string]int64, rates map[string]float64) {
	c["load_delay_predicts"] = r.LoadDelayPredicts
	c["load_delay_mispredicts"] = r.LoadDelayMispredicts
	c["load_delay_lookups"] = int64(r.LoadDelay.Lookups)
	rates["load_delay_hit_rate"] = r.LoadDelay.HitRate()
}
