package sim

// Resource is a counting semaphore with priority queuing, used to model
// contended hardware: a CPU, a DMA engine, a bus. Lower prio values are
// served first; within a priority, FIFO order (by request sequence) holds,
// which keeps the simulation deterministic.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	seq      int64
	queue    []resWaiter // ordered by (prio, seq); the backing array is reused
}

// resWaiter is one queued request: a parked process (p) or a continuation
// (fn) to schedule when the unit is granted.
type resWaiter struct {
	p    *Proc
	fn   func()
	prio int
	seq  int64
}

// NewResource returns a resource with the given capacity (≥1).
func NewResource(e *Engine, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{eng: e, capacity: capacity}
}

// Acquire blocks p until a unit of the resource is available. prio orders
// contending waiters; lower values win.
func (r *Resource) Acquire(p *Proc, prio int) {
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.inUse++
		return
	}
	r.seq++
	r.insert(resWaiter{p: p, prio: prio, seq: r.seq})
	p.park()
	// The releaser incremented inUse on our behalf before waking us.
}

// AcquireFunc is Acquire for a continuation running on the event loop,
// which cannot park. If a unit is free it is taken and AcquireFunc reports
// true: the caller goes on at once, as a process would. Otherwise the
// request queues in the same (prio, seq) order as Acquire's and reports
// false; Release then grants the unit by scheduling fn as a KindProc event
// at the current time — the event that would have woken a parked process —
// so which work runs first at that instant does not depend on whether the
// waiter is a process or a continuation.
func (r *Resource) AcquireFunc(prio int, fn func()) bool {
	if r.TryAcquire() {
		return true
	}
	r.seq++
	r.insert(resWaiter{fn: fn, prio: prio, seq: r.seq})
	return false
}

// TryAcquire acquires a unit without blocking; it reports success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit and grants it to the best waiter, if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of un-acquired resource")
	}
	r.inUse--
	if len(r.queue) > 0 && r.inUse < r.capacity {
		w := r.queue[0]
		n := copy(r.queue, r.queue[1:])
		r.queue[n] = resWaiter{}
		r.queue = r.queue[:n]
		r.inUse++
		if w.p != nil {
			w.p.wake()
		} else {
			r.eng.schedule(r.eng.now, KindProc, nil, w.fn)
		}
	}
}

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of waiters (processes and continuations).
func (r *Resource) QueueLen() int { return len(r.queue) }

// insert places w in the queue ordered by (prio, seq).
func (r *Resource) insert(w resWaiter) {
	i := len(r.queue)
	for i > 0 {
		q := r.queue[i-1]
		if q.prio < w.prio || (q.prio == w.prio && q.seq < w.seq) {
			break
		}
		i--
	}
	r.queue = append(r.queue, w)
	copy(r.queue[i+1:], r.queue[i:])
	r.queue[i] = w
}
