package ooo

import "redsoc/internal/obs"

// lsqForwardLatency is the LSQ-read latency a speculatively allocated entry
// forwards at: one cycle, straight off the queue's data array, instead of the
// L1 probe a conventional forward is charged.
const lsqForwardLatency = 1

// lsqForward serves a load from its forwardable store's speculatively
// allocated queue entry, at LSQ-read latency with no cache probe, and
// reports whether it did (e.memLat then holds the latency). Committed
// stores forward too: the arena refcount the memDep link holds pins the
// slab entry (and its result) until this load retires, so the queue read
// stays valid past commit.
//
//redsoc:hotpath
func (s *Simulator) lsqForward(e *entry) bool {
	if e.memDep == none || !forwardable(s.ent(e.memDep), e) {
		return false
	}
	s.res.LSQSpecForwards++
	s.res.Mix.MemLL++
	e.memLat = lsqForwardLatency
	return true
}

// lsqSquash handles a lost speculative-LSQ bet at issue validation: the
// load's forwardable store has not executed, so the speculatively allocated
// queue entry holds no data — a misallocation. The grant is wasted and the
// entry reverts to conventional store wakeup (validated suppresses further
// bets; the dispatch-time registration on the store's tag re-wakes the load
// when the store broadcasts or commits), the same selective-reissue recovery
// cancelGrant uses for tag mispredicts.
//
//redsoc:hotpath
func (s *Simulator) lsqSquash(e, dep *entry, cycle int64, spec bool) bool {
	s.res.LSQMisallocations++
	if s.obs != nil {
		s.obs.Emit(obs.Event{Kind: obs.KindLSQSquash, Cycle: cycle, Seq: e.seq, Op: e.op,
			PC: e.pc, FU: uint8(e.fu), Unit: -1, Arg: dep.seq})
	}
	e.validated = true
	return false
}

// specLSQMetrics adds the speculative LSQ's forward and misallocation
// counts to a metrics snapshot.
func specLSQMetrics(r *Result, c map[string]int64, rates map[string]float64) {
	c["lsq_spec_forwards"] = r.LSQSpecForwards
	c["lsq_misallocations"] = r.LSQMisallocations
	rates["lsq_misalloc_rate"] = ratio(r.LSQMisallocations, r.LSQSpecForwards+r.LSQMisallocations)
}
