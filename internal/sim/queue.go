package sim

// Queue is an unbounded FIFO for passing items to consuming processes.
// Put may be called from any simulation context; Get blocks the calling
// process until an item is available.
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
