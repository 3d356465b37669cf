package sim

// Queue is an unbounded FIFO for passing items to consumers. Put may be
// called from any simulation context; Get blocks the calling process until
// an item is available, and a continuation waits for one with WaitFunc.
type Queue[T any] struct {
	items  fifo[T]
	signal *Signal
}

// NewQueue returns an empty queue bound to e.
func NewQueue[T any](e *Engine) *Queue[T] {
	return &Queue[T]{signal: NewSignal(e)}
}

// Put appends an item and wakes one waiting consumer.
func (q *Queue[T]) Put(v T) {
	q.items.push(v)
	q.signal.Signal()
}

// Get removes and returns the oldest item, blocking p until one exists.
func (q *Queue[T]) Get(p *Proc) T {
	for q.items.len() == 0 {
		q.signal.Wait(p)
	}
	return q.items.pop()
}

// WaitFunc is Get's wait for a continuation: fn is scheduled, as a
// KindProc event in the same FIFO as waiting processes, by the next Put
// that reaches it. The caller waits only on an empty queue, and takes the
// item with TryGet when fn runs.
func (q *Queue[T]) WaitFunc(fn func()) { q.signal.WaitFunc(fn) }

// TryGet removes and returns the oldest item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.items.len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.pop(), true
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }
