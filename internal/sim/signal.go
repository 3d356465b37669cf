package sim

import "repro/internal/units"

// Signal is a broadcast/signal condition variable for processes.
// The zero value is not usable; create one with NewSignal.
type Signal struct {
	eng     *Engine
	waiters fifo[sigWaiter]
}

// sigWaiter is one queued wait. A process is in at most one wait at a
// time, so the wait's state lives in the Proc: the entry is live while
// gen equals the process's waitGen, and whoever ends the wait (a signal
// or the timeout) advances waitGen, which retires the entry wherever it
// still sits in the queue.
type sigWaiter struct {
	p   *Proc
	gen uint64
}

func (w sigWaiter) live() bool { return w.gen == w.p.waitGen }

// NewSignal returns a signal bound to e.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Wait blocks p until the signal is signaled or broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters.push(sigWaiter{p, p.waitGen})
	p.park()
}

// WaitTimeout blocks p until the signal fires or d elapses. It reports
// whether the signal fired (false means timeout).
func (s *Signal) WaitTimeout(p *Proc, d units.Time) bool {
	w := sigWaiter{p, p.waitGen}
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

// Signal wakes the longest-waiting process, if any.
func (s *Signal) Signal() { s.wakeNext() }

// Broadcast wakes every waiting process.
func (s *Signal) Broadcast() {
	for s.wakeNext() {
	}
}

// wakeNext dequeues up to and including the oldest live waiter and wakes
// it; it reports false when the queue held none.
func (s *Signal) wakeNext() bool {
	for s.waiters.len() > 0 {
		if w := s.waiters.pop(); w.live() {
			w.p.waitGen++
			w.p.wake()
			return true
		}
	}
	return false
}

// Waiting returns the number of processes currently waiting.
func (s *Signal) Waiting() int {
	n := 0
	for i := 0; i < s.waiters.len(); i++ {
		if s.waiters.at(i).live() {
			n++
		}
	}
	return n
}
