package sim

import "repro/internal/units"

// Signal is a broadcast/signal condition variable for processes and
// continuations. The zero value is not usable; create one with NewSignal.
type Signal struct {
	eng     *Engine
	waiters fifo[sigWaiter]
}

// sigWaiter is one queued wait: a parked process (p) or a continuation
// (fn). A process is in at most one wait at a time, so the wait's state
// lives in the Proc: the entry is live while gen equals the process's
// waitGen, and whoever ends the wait (a signal or the timeout) advances
// waitGen, which retires the entry wherever it still sits in the queue. A
// continuation's wait has no timeout and is live until it is woken.
type sigWaiter struct {
	p   *Proc
	fn  func()
	gen uint64
}

func (w sigWaiter) live() bool { return w.p == nil || w.gen == w.p.waitGen }

// NewSignal returns a signal bound to e.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Wait blocks p until the signal is signaled or broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters.push(sigWaiter{p: p, gen: p.waitGen})
	p.park()
}

// WaitFunc is Wait for a continuation running on the event loop, which
// cannot park: fn joins the same FIFO as waiting processes, and the
// Signal or Broadcast that reaches it schedules fn as a KindProc event at
// the current time — the event that would have woken a parked process —
// so which work runs first at that instant does not depend on whether
// the waiter is a process or a continuation.
func (s *Signal) WaitFunc(fn func()) {
	s.waiters.push(sigWaiter{fn: fn})
}

// WaitTimeout blocks p until the signal fires or d elapses. It reports
// whether the signal fired (false means timeout).
func (s *Signal) WaitTimeout(p *Proc, d units.Time) bool {
	w := sigWaiter{p: p, gen: p.waitGen}
	s.waiters.push(w)
	p.timedOut = false
	s.eng.AfterKind(d, KindTimer, func() {
		if !w.live() {
			return
		}
		p.waitGen++
		p.timedOut = true
		s.eng.deliver(p)
	})
	p.park()
	return !p.timedOut
}

// Signal wakes the longest waiter, if any.
func (s *Signal) Signal() { s.wakeNext() }

// Broadcast wakes every waiter.
func (s *Signal) Broadcast() {
	for s.wakeNext() {
	}
}

// wakeNext dequeues up to and including the oldest live waiter and wakes
// it; it reports false when the queue held none.
func (s *Signal) wakeNext() bool {
	for s.waiters.len() > 0 {
		w := s.waiters.pop()
		switch {
		case w.p == nil:
			s.eng.schedule(s.eng.now, KindProc, nil, w.fn)
		case w.live():
			w.p.waitGen++
			w.p.wake()
		default:
			continue
		}
		return true
	}
	return false
}

// Waiting returns the number of processes and continuations currently
// waiting.
func (s *Signal) Waiting() int {
	n := 0
	for i := 0; i < s.waiters.len(); i++ {
		if s.waiters.at(i).live() {
			n++
		}
	}
	return n
}
