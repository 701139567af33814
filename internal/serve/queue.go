package serve

import "sync"

// queue is the fair FIFO-per-tenant job queue: each tenant's jobs run in
// submission order, and dispatch round-robins across the tenants that have
// work, so one tenant submitting a thousand jobs delays another tenant by at
// most the jobs already running — never by the queue. Fairness here is
// scheduling only: it decides who runs next, and nothing else, so it can
// never perturb results (which are a pure function of each job's spec).
type queue struct {
	mu   sync.Mutex
	cond *sync.Cond
	// perTenant holds each tenant's pending jobs in FIFO order; ring lists
	// the tenants that currently have pending work, in first-seen order, and
	// next is the round-robin cursor into it.
	perTenant map[string][]*job
	ring      []string
	next      int
	closed    bool
}

func newQueue() *queue {
	q := &queue{perTenant: map[string][]*job{}}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// maxQueuedPerTenant bounds the jobs one tenant may have waiting (running
// jobs do not count). Fairness already stops a flood from delaying other
// tenants; the bound stops it from growing the server's memory without
// limit, and tells the client to back off.
const maxQueuedPerTenant = 64

// push enqueues a job at the back of its tenant's FIFO. It enqueues nothing
// and returns ErrClosed once the queue is closed, or ErrQueueFull when the
// tenant already has maxQueuedPerTenant jobs waiting.
func (q *queue) push(j *job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if len(q.perTenant[j.tenant]) >= maxQueuedPerTenant {
		return ErrQueueFull
	}
	if _, ok := q.perTenant[j.tenant]; !ok {
		q.ring = append(q.ring, j.tenant)
	}
	q.perTenant[j.tenant] = append(q.perTenant[j.tenant], j)
	q.cond.Signal()
	return nil
}

// pop blocks until a job is available (round-robin across tenants, FIFO
// within a tenant) or the queue is closed.
func (q *queue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.ring) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.ring) == 0 {
		return nil, false
	}
	if q.next >= len(q.ring) {
		q.next = 0
	}
	tenant := q.ring[q.next]
	list := q.perTenant[tenant]
	j := list[0]
	if len(list) == 1 {
		delete(q.perTenant, tenant)
		q.ring = append(q.ring[:q.next], q.ring[q.next+1:]...)
		// The cursor now points at the tenant after the removed one — the
		// round-robin advances without skipping anybody.
	} else {
		q.perTenant[tenant] = list[1:]
		q.next++
	}
	return j, true
}

// close wakes every blocked pop; pending jobs are left unclaimed (the
// server marks them failed on shutdown).
func (q *queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// drain removes and returns every pending job (used at shutdown).
func (q *queue) drain() []*job {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []*job
	for _, tenant := range q.ring {
		out = append(out, q.perTenant[tenant]...)
		delete(q.perTenant, tenant)
	}
	q.ring = nil
	q.next = 0
	return out
}

// depth snapshots the pending-job count per tenant.
func (q *queue) depth() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]int, len(q.perTenant))
	for t, list := range q.perTenant { //lint:allow simdeterminism snapshot map copy; consumers sort the keys
		out[t] = len(list)
	}
	return out
}
