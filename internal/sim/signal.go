package sim

// Signal is a broadcast/signal condition variable for processes and
// continuations. The zero value is not usable; create one with NewSignal.
type Signal struct {
	eng     *Engine
	waiters FIFO[sigWaiter]
}

// sigWaiter is one queued wait: a parked process (p) or a continuation
// (fn). A wait ends only when a Signal or Broadcast reaches it, so every
// queued entry is live.
type sigWaiter struct {
	p  *Proc
	fn func()
}

// NewSignal returns a signal bound to e.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Wait blocks p until the signal is signaled or broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters.Push(sigWaiter{p: p})
	p.park()
}

// WaitFunc is Wait for a continuation running on the event loop, which
// cannot park: fn joins the same FIFO as waiting processes, and the
// Signal or Broadcast that reaches it schedules fn as a KindProc event at
// the current time — the event that would have woken a parked process —
// so which work runs first at that instant does not depend on whether
// the waiter is a process or a continuation.
func (s *Signal) WaitFunc(fn func()) {
	s.waiters.Push(sigWaiter{fn: fn})
}

// Signal wakes the longest waiter, if any.
func (s *Signal) Signal() { s.wakeNext() }

// Broadcast wakes every waiter.
func (s *Signal) Broadcast() {
	for s.wakeNext() {
	}
}

// wakeNext dequeues the oldest waiter and schedules, at the current time,
// the KindProc event that resumes it (the process's wake-up or the
// continuation's call); it reports false when there was none.
func (s *Signal) wakeNext() bool {
	if s.waiters.Len() == 0 {
		return false
	}
	w := s.waiters.Pop()
	s.eng.schedule(s.eng.now, KindProc, w.p, w.fn)
	return true
}

// Waiting returns the number of processes and continuations currently
// waiting.
func (s *Signal) Waiting() int { return s.waiters.Len() }
