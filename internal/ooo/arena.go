package ooo

import (
	"runtime"
	"sync"

	"redsoc/internal/core"
	"redsoc/internal/mem"
	"redsoc/internal/predict"
)

// The entry slab is the simulator's physical register file, R10K-style: a
// dense []entry backing store, a free list of slab indices, and the map table
// (Simulator.rat) mapping architectural rename indices to the slab index of
// the youngest in-flight producer. Every inter-entry reference — source
// producers, grandparent tags, memory dependences, ring/ready-set membership,
// waiter lists — is an int32 slab index, never an *entry pointer, so the
// steady-state scheduler stores plain integers and emits no GC write
// barriers (the dominant cost of the old pointer-graph representation).
//
// Recycle-safety rule: a committed entry may still be referenced — as a source
// producer (srcValue/trueParentComp/producerAt read it at the consumer's
// issue), as a grandparent tag, as a load's memory dependence, or as the
// pending front-end redirect (dispatch reads its schedule after it resolves).
// Every such reference points at a strictly *older* entry, so it is counted in
// entry.refs when taken (dispatch/rename time, or when the redirect is set)
// and dropped when the referencing entry commits (or the redirect clears).
// An entry's index returns to the free list only when it has committed *and*
// refs has reached zero; both release paths check, since either event can
// come last. The rule also bounds the slab: at most ROBSize uncommitted
// entries, each pinning at most 6 older ones (4 sources, grandparent, memory
// dependence) plus the redirect. New preallocates for the typical peak
// (2*ROBSize+8); the grow path below absorbs the rare tail, amortized once
// per high-water mark.
//
// Storage lifetime: the slab and free list, the scheduler's other per-run
// scratch (scratch below), the dense delay counter, the cache hierarchy, the
// functional memory, the predictor tables and the lockstep interpreter
// (final.go, reset by armLockstep) are one bundle (storage) with one owner
// at a time. New borrows a bundle from the spare list and resets
// it; Run returns it when the simulation ends — after capture, on the error
// path too — and nils the Simulator's fields, so nothing reaches the storage
// through a finished Simulator and a second Run is refused. The reset
// contract is that a borrowed bundle is observably a fresh one: the
// hierarchy is reset to cold (mem.Hierarchy.Reset, which keeps line storage
// only when the geometry matches), the memory is re-instantiated from the
// program's image (mem.Memory.Reset), each predictor is rebuilt in place
// exactly as its predict.New* constructor builds it (Reset, which resizes a
// table whose entry count differs), the delay counter is zeroed, the rings
// and FU pools are cleared and sized to exactly the configured ROB, LSQ and
// pool sizes, and every scratch list — the slab and free list among them —
// is emptied to length zero, so a recycled slot is only ever reached
// through an append or alloc that overwrites it (alloc zeroes a recycled
// slab slot but keeps its waiters capacity). Only capacity carries from one
// run into the next, never contents.

// ent resolves a slab index. The returned pointer is valid only until the
// next alloc (the slab may grow); the scheduler never holds one across a
// dispatch.
//
//redsoc:hotpath
func (s *Simulator) ent(i int32) *entry { return &s.slab[i] }

// alloc returns the index of a zeroed entry, recycling from the free list
// when possible, then slots a previous run on this storage left past the
// slab's length, whose waiters capacity survives as freeEntry's does.
//
//redsoc:hotpath
func (s *Simulator) alloc() int32 {
	if n := len(s.freeList); n > 0 {
		i := s.freeList[n-1]
		s.freeList = s.freeList[:n-1]
		return i
	}
	if n := len(s.slab); n < cap(s.slab) {
		s.slab = s.slab[:n+1]
		e := &s.slab[n]
		*e = entry{waiters: e.waiters[:0]}
		return int32(n)
	}
	s.slab = append(s.slab, entry{}) //lint:allow hotpath slab grow path: amortized once per live-entry high-water mark, preallocated past the typical peak at New
	return int32(len(s.slab) - 1)
}

// freeEntry resets a slab slot and returns its index to the free list. The
// waiters backing array survives the reset so re-dispatch appends into warm
// capacity.
//
//redsoc:hotpath
func (s *Simulator) freeEntry(i int32) {
	e := &s.slab[i]
	*e = entry{waiters: e.waiters[:0]}
	s.freeList = append(s.freeList, i) //lint:allow hotpath amortized: the free list is preallocated to slab capacity at New, then recycles in place
}

// retain counts one incoming reference to slab index pi.
//
//redsoc:hotpath
func (s *Simulator) retain(pi int32) { s.slab[pi].refs++ }

// release drops one incoming reference and recycles the slot once nothing can
// reach it anymore.
//
//redsoc:hotpath
func (s *Simulator) release(pi int32) {
	p := &s.slab[pi]
	p.refs--
	if p.refs == 0 && p.state == stCommitted {
		s.freeEntry(pi)
	}
}

// releaseRefs drops e's outgoing references (source producers, grandparent
// tag, memory dependence) — called exactly once, when e commits.
//
//redsoc:hotpath
func (s *Simulator) releaseRefs(e *entry) {
	for i := 0; i < int(e.nsrc); i++ {
		if p := e.srcs[i].prod; p != none {
			s.release(p)
		}
	}
	if e.gp != none {
		s.release(e.gp)
	}
	if e.memDep != none {
		s.release(e.memDep)
	}
}

// scratch is the scheduler's per-run working storage: the entry slab and
// its free list, the ROB, LSQ and store-queue rings, the reservation-station
// and wakeup lists, the issue path's request and grant lists, and the FU
// pools. The Simulator embeds it, so the hot path reaches every list
// directly; the storage bundle keeps it between runs.
type scratch struct {
	// slab and freeList are the dense physical entry store (see above).
	slab     []entry
	freeList []int32

	rob    seqRing // FIFO of slab indices, head first
	rs     []int32 // waiting entries; arbitrary order (rsRemove swaps), slots tracked in entry.rsSlot
	lsq    seqRing // memory ops, dispatch order
	storeQ seqRing // the LSQ's stores only, dispatch order (memDep scans)

	// ready is the scheduler's wakeup set — the only entries issue examines —
	// kept sorted ascending by seq so events are emitted in the same order
	// the old full-RS scan produced. wakeBuf collects entries woken since the
	// last merge (producer broadcasts, store commits, fresh dispatches that
	// might be schedulable — see watchWakeups);
	// readyScratch is the merge target, swapped with ready each merge so
	// neither list reallocates in steady state.
	ready        []int32
	wakeBuf      []int32
	readyScratch []int32

	// Reusable issue-path scratch: per-FU request lists, the arbiter request
	// view, the seq-ordered grant list, the per-pool win flags for select
	// observability, and the rename/training candidate indices.
	reqs    [numFUKinds][]issueReq
	arb     []core.Request
	granted []issueReq
	won     []bool
	cands   []int

	fus [numFUKinds]fuPool
}

// reset empties every list and sizes the rings and pools for cfg, keeping
// capacity only. The rings wrap modulo len(buf), so each is sliced to
// exactly its configured size, never to a larger capacity left over.
func (sc *scratch) reset(cfg Config) {
	// The hard slab bound is the refcount rule above (7*ROBSize+8), but real
	// traces pin a small fraction of that — sources resolve within a ROB's
	// reach of their consumers. Size for the typical peak and let alloc's
	// amortized grow path absorb the pathological tail: a full-bound slab
	// costs more in allocation and zeroing than growth ever does.
	slabCap := 2*cfg.ROBSize + 8
	if cap(sc.slab) < slabCap {
		sc.slab = make([]entry, 0, slabCap)
	}
	if cap(sc.freeList) < slabCap {
		sc.freeList = make([]int32, 0, slabCap)
	}
	sc.slab, sc.freeList = sc.slab[:0], sc.freeList[:0]
	sc.rob.reset(cfg.ROBSize)
	sc.lsq.reset(cfg.LSQSize)
	sc.storeQ.reset(cfg.LSQSize)
	sc.rs, sc.ready, sc.wakeBuf, sc.readyScratch = sc.rs[:0], sc.ready[:0], sc.wakeBuf[:0], sc.readyScratch[:0]
	for k := range sc.reqs {
		sc.reqs[k] = sc.reqs[k][:0]
	}
	sc.arb, sc.granted, sc.won, sc.cands = sc.arb[:0], sc.granted[:0], sc.won[:0], sc.cands[:0]
	sc.fus[fuALU].reset(cfg.NumALU)
	sc.fus[fuSIMD].reset(cfg.NumSIMD)
	sc.fus[fuFP].reset(cfg.NumFP)
	sc.fus[fuMEM].reset(cfg.NumMemPorts)
}

// storage is a simulation's recyclable machine storage: everything whose size
// follows the core and the program rather than the trace position, and whose
// allocation would otherwise dominate a short run. See the storage lifetime
// paragraph above.
type storage struct {
	hier   *mem.Hierarchy
	memory *mem.Memory
	scratch
	delays delayCounts

	widthPred  *predict.WidthPredictor
	lastPred   *predict.LastArrivalPredictor
	branchPred *predict.BranchPredictor
	loadPred   *predict.LoadDelayTracker // built on the first PolicyLoadDelay run
	lock       lockstep                  // its interpreter's memory built on the first armed run
}

// spare holds the bundles of finished simulations for the next New: a
// free list, not a sync.Pool, so that a bundle outlives garbage collections
// and is found whichever P asks. It keeps at most GOMAXPROCS bundles, as
// many as simulations can run at once; a bundle returned beyond that is
// dropped.
var spare struct {
	sync.Mutex
	list []*storage
}

// borrowStorage returns a bundle reset for a run of cfg over a program whose
// initial memory is img, recycled when the spare list has one.
func borrowStorage(cfg Config, img *mem.Image) *storage {
	var st *storage
	spare.Lock()
	if n := len(spare.list); n > 0 {
		st = spare.list[n-1]
		spare.list[n-1] = nil
		spare.list = spare.list[:n-1]
	}
	spare.Unlock()
	if st == nil {
		st = &storage{
			hier:       mem.NewHierarchy(cfg.Mem),
			memory:     mem.NewMemory(),
			widthPred:  &predict.WidthPredictor{},
			lastPred:   &predict.LastArrivalPredictor{},
			branchPred: &predict.BranchPredictor{},
		}
	} else {
		st.hier.Reset(cfg.Mem)
		clear(st.delays[:])
	}
	st.memory.Reset(img)
	st.widthPred.Reset(cfg.WidthPredictorEntries, predict.DefaultConfidenceBits)
	st.lastPred.Reset(cfg.LastArrivalEntries)
	st.branchPred.Reset(predict.DefaultBranchEntries, predict.DefaultHistoryBits)
	if policies[cfg.Policy].tracksLoadDelay {
		if st.loadPred == nil {
			st.loadPred = &predict.LoadDelayTracker{}
		}
		st.loadPred.Reset(cfg.LoadDelayEntries)
	}
	st.scratch.reset(cfg)
	return st
}

// releaseStorage returns the simulator's bundle to the free list, keeping
// the scratch lists as they grew, and unhooks every field that reaches it
// (the estimator holds the width predictor).
func (s *Simulator) releaseStorage() {
	st := s.store
	st.scratch, s.scratch = s.scratch, scratch{}
	s.store, s.hier, s.memory, s.delays = nil, nil, nil, nil
	s.widthPred, s.lastPred, s.branchPred, s.loadPred, s.estimator, s.lock = nil, nil, nil, nil, nil, nil
	spare.Lock()
	if len(spare.list) < runtime.GOMAXPROCS(0) {
		spare.list = append(spare.list, st)
	}
	spare.Unlock()
}
