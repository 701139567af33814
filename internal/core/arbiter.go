package core

// The select arbiter of Sec. IV-D: an age-mask table plus a wakeup array,
// extended with the P/GP array that skews priority so non-speculative
// (parent-woken) requests always beat speculative (grandparent-woken) ones
// while each group keeps oldest-first order among itself. Global arbitration
// (one window over all entries) is assumed, as in the paper, so a GP-woken
// child can never be selected ahead of its requesting parent.
//
// The gate-level form (Fig. 9: per-entry age masks, effective-mask
// intersection against the wakeup vector) reduces to a total grant order —
// skewed: every non-speculative request before any speculative one, oldest
// first within each group; unskewed: purely oldest first. Grant evaluates
// that order directly with an O(n·m) selection sweep; grantCircuit keeps the
// mask-table implementation as the executable reference, and a test pins the
// two to identical grant sequences.

// Request is one reservation-station entry asking the select logic for a
// grant.
type Request struct {
	// Age orders entries: smaller is older (higher priority). Ages are
	// unique (dynamic sequence numbers).
	Age int64
	// Spec marks a speculative GP-wakeup request.
	Spec bool
}

// Arbiter is the (optionally skewed) oldest-first select logic. It owns the
// grant and mask scratch storage for its evaluations, so a steady-state
// select cycle allocates nothing; an Arbiter is consequently not safe for
// concurrent use (each Simulator owns one).
type Arbiter struct {
	skewed bool

	// Selection scratch reused across Grant calls.
	taken  []bool
	grants []int

	// Scratch for grantCircuit: one flat word buffer backing the
	// per-request age masks and the three working bitsets.
	maskWords []uint64
	older     []bitset
	awake     bitset
	nonSpec   bitset
	eff       bitset
}

// NewArbiter returns an arbiter; skewed enables the P-over-GP priority.
func NewArbiter(skewed bool) *Arbiter { return &Arbiter{skewed: skewed} }

// Skewed reports whether P-over-GP skewing is on.
func (a *Arbiter) Skewed() bool { return a.skewed }

const wordBits = 64

type bitset []uint64

func (b bitset) zero() {
	for i := range b {
		b[i] = 0
	}
}

func (b bitset) set(i int)      { b[i/wordBits] |= 1 << (i % wordBits) }
func (b bitset) clear(i int)    { b[i/wordBits] &^= 1 << (i % wordBits) }
func (b bitset) get(i int) bool { return b[i/wordBits]&(1<<(i%wordBits)) != 0 }

// intersects reports whether b∩c is non-empty.
func (b bitset) intersects(c bitset) bool {
	for i := range b {
		if b[i]&c[i] != 0 {
			return true
		}
	}
	return false
}

// Grant selects up to m winners from the requests and returns their indices
// in grant order.
//
// The returned slice aliases the arbiter's scratch storage and is valid only
// until the next Grant call.
//
//redsoc:hotpath
func (a *Arbiter) Grant(reqs []Request, m int) []int {
	n := len(reqs)
	if n == 0 || m <= 0 {
		return nil
	}
	if cap(a.taken) < n {
		a.taken = make([]bool, n) //lint:allow hotpath amortized: scratch regrows once per high-water mark
	}
	taken := a.taken[:n]
	for i := range taken {
		taken[i] = false
	}
	grants := a.grants[:0]
	for len(grants) < m && len(grants) < n {
		w := -1
		for i := range reqs {
			if taken[i] {
				continue
			}
			if w < 0 || a.outranks(&reqs[i], &reqs[w]) {
				w = i
			}
		}
		taken[w] = true
		grants = append(grants, w) //lint:allow hotpath amortized: the grant list is retained scratch, regrown once per high-water mark
	}
	a.grants = grants
	return grants
}

// outranks reports whether x precedes y in grant order.
//
//redsoc:hotpath
func (a *Arbiter) outranks(x, y *Request) bool {
	if a.skewed && x.Spec != y.Spec {
		return !x.Spec
	}
	return x.Age < y.Age
}

// GrantSorted is Grant for request slices already in ascending Age order (a
// scheduler whose ready set is age-sorted gets this for free). The grant
// order falls out in one or two linear passes instead of the O(n·m)
// selection sweep; the result is identical to Grant on the same input.
//
// The returned slice aliases the arbiter's scratch storage and is valid only
// until the next Grant or GrantSorted call.
//
//redsoc:hotpath
func (a *Arbiter) GrantSorted(reqs []Request, m int) []int {
	n := len(reqs)
	if n == 0 || m <= 0 {
		return nil
	}
	grants := a.grants[:0]
	if a.skewed {
		for i := range reqs {
			if len(grants) == m {
				break
			}
			if !reqs[i].Spec {
				grants = append(grants, i) //lint:allow hotpath amortized: the grant list is retained scratch, regrown once per high-water mark
			}
		}
		for i := range reqs {
			if len(grants) == m {
				break
			}
			if reqs[i].Spec {
				grants = append(grants, i) //lint:allow hotpath amortized: the grant list is retained scratch, regrown once per high-water mark
			}
		}
	} else {
		for i := 0; i < n && i < m; i++ {
			grants = append(grants, i) //lint:allow hotpath amortized: the grant list is retained scratch, regrown once per high-water mark
		}
	}
	a.grants = grants
	return grants
}

// grantCircuit evaluates the Fig. 9 gate-level circuit: each entry's age mask
// has a bit per older entry; a requester wins when its effective mask
// intersects no awake entry. Skewing ORs every non-speculative requester into
// a speculative entry's mask and clears speculative bits from a
// non-speculative entry's mask. Grant produces the same sequence without the
// O(n²) mask table; this form is kept as the executable specification.
func (a *Arbiter) grantCircuit(reqs []Request, m int) []int {
	n := len(reqs)
	if n == 0 || m <= 0 {
		return nil
	}
	a.grow(n)
	// Age masks: older[i] = set of indices with smaller Age.
	older := a.older[:n]
	for i := range reqs {
		older[i].zero()
		for j := range reqs {
			if reqs[j].Age < reqs[i].Age {
				older[i].set(j)
			}
		}
	}
	awake := a.awake
	nonSpecAwake := a.nonSpec
	awake.zero()
	nonSpecAwake.zero()
	for i, r := range reqs {
		awake.set(i)
		if !r.Spec {
			nonSpecAwake.set(i)
		}
	}
	grants := a.grants[:0]
	eff := a.eff
	for len(grants) < m {
		winner := -1
		for i := range reqs {
			if !awake.get(i) {
				continue
			}
			// Effective mask per Fig. 9b.
			for w := range eff {
				eff[w] = older[i][w]
				if a.skewed {
					if reqs[i].Spec {
						eff[w] |= nonSpecAwake[w]
						eff[w] &^= bit(i, w) // an entry never masks itself
					} else {
						eff[w] &= nonSpecAwake[w]
					}
				}
			}
			if !eff.intersects(awake) {
				winner = i
				break
			}
		}
		if winner < 0 {
			break
		}
		grants = append(grants, winner)
		awake.clear(winner)
		nonSpecAwake.clear(winner)
	}
	a.grants = grants
	return grants
}

// grow resizes the circuit's scratch storage for n requests. The per-request
// age masks share one flat word buffer so regrowth is a single allocation.
func (a *Arbiter) grow(n int) {
	words := (n + wordBits - 1) / wordBits
	if cap(a.older) < n || len(a.maskWords) < (n+3)*words {
		a.maskWords = make([]uint64, (n+3)*words)
		a.older = make([]bitset, n)
	}
	a.older = a.older[:n]
	buf := a.maskWords
	for i := range a.older {
		a.older[i] = buf[i*words : (i+1)*words]
	}
	a.awake = buf[n*words : (n+1)*words]
	a.nonSpec = buf[(n+1)*words : (n+2)*words]
	a.eff = buf[(n+2)*words : (n+3)*words]
}

// bit returns the mask word w with only index i's bit (when it lives in w).
func bit(i, w int) uint64 {
	if i/wordBits != w {
		return 0
	}
	return 1 << (i % wordBits)
}
