//go:build go1.23

package sim

import (
	"fmt"
	"iter"

	"repro/internal/units"
)

// Proc is a simulation process: a coroutine the event loop resumes and that
// hands control straight back when it blocks. At any instant at most one
// process (or event) is running; a process gives up control by blocking in
// Sleep, Signal.Wait, Resource.Acquire, or Queue.Get, and is resumed by a
// KindProc event. The switch in each direction is the runtime's coroutine
// switch (iter.Pull): no channel, no scheduler round trip, no other thread.
// A Sleep whose wake-up is the next event skips both switches (see Sleep).
//
// Proc methods that block must only be called from the process itself.
// Methods that wake other processes (Signal.Broadcast and friends) may be
// called from any simulation context; they take effect via scheduled
// events. Under Run a parking process also dispatches, on its own stack,
// the callbacks due before the next process wake-up, and goes on without
// a switch when that wake-up is its own (see park).
type Proc struct {
	eng    *Engine
	name   string
	next   func() (struct{}, bool) // resume the coroutine until it parks or ends
	stop   func()                  // unwind the coroutine
	yield  func(struct{}) bool     // park: switch back to the event loop
	done   bool
	killed bool
}

// killSentinel unwinds a killed process.
type killSentinel struct{}

// Go spawns a new process named name running fn. The process starts at the
// current virtual time (after already-scheduled events at that time).
func (e *Engine) Go(name string, fn func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.finish()
			// A kill ends here. Any other panic goes on to next's caller,
			// which is the event loop and so the caller of Run.
			if r := recover(); r != nil {
				if _, ok := r.(killSentinel); !ok {
					panic(r)
				}
			}
		}()
		fn(p)
	})
	e.live[p] = struct{}{}
	p.wake()
	return p
}

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() units.Time { return p.eng.now }

// deliver switches to p and returns when it parks or finishes. It must be
// called from event context (never from inside a process), as the event's
// last act: a Sleep may end the event in place. It reports whether the
// process ended the event itself (park, under Run), so that the caller
// does not report its dispatch again. A panic in the process, or in an
// event dispatched on its stack, surfaces here.
func (e *Engine) deliver(p *Proc) bool {
	if p.done {
		return false
	}
	e.ended = false
	p.next()
	return e.ended
}

// park switches from the calling process back to the event loop and
// returns when the process is next delivered. A killed process unwinds
// instead, and keeps unwinding if its own defers try to block again.
//
// Under Run, park first does on the process's own stack what Step would
// do after the switch back: it ends the current event with the Dispatched
// call Step would have made, then dispatches each following event that
// resumes no live process — a callback, or the wake-up of a process that
// has finished — with its own Dispatched call, in the order Step would
// pop them. It stops at Stop, when no event is left, or at the first
// wake-up of a live process. When that wake-up is p's own it becomes the
// current event (clock, kind, sequence number) and park returns with no
// coroutine switch; otherwise p switches back as usual, and Step, told by
// deliver that the event has ended, goes on to the next one. Every event
// keeps its time, kind and sequence number, and every Monitor call its
// arguments; only the stack the callbacks run on differs, so a panicking
// callback unwinds p (which finishes) on its way to Run's caller.
func (p *Proc) park() {
	e := p.eng
	if e.running && !p.killed {
		e.ended = true
		if e.mon != nil {
			e.mon.Dispatched(e.kind, e.Pending())
		}
		for !e.stopped {
			var src *eventHeap
			var next *event
			switch {
			case e.lane.Len() > 0 && !e.heapDue(e.now):
				next = e.lane.Peek()
			case len(e.timers) > 0 && (len(e.events) == 0 || e.timers[0].before(&e.events[0])):
				src = &e.timers
			case len(e.events) > 0:
				src = &e.events
			}
			if src != nil {
				next = &(*src)[0]
			}
			if next == nil || next.proc != nil && next.proc != p && !next.proc.done {
				break
			}
			var ev event
			if src == nil {
				ev = e.lane.Pop()
			} else {
				ev = src.pop()
				e.now = ev.at
			}
			e.kind, e.evSeq = ev.kind(), int64(ev.key>>8)
			if ev.proc == p {
				e.ended = false
				return
			}
			if ev.fn != nil {
				ev.fn()
			}
			if e.mon != nil {
				e.mon.Dispatched(e.kind, e.Pending())
			}
		}
	}
	if p.killed || !p.yield(struct{}{}) {
		p.killed = true
		panic(killSentinel{})
	}
}

// finish records that the process is over, however it ended.
func (p *Proc) finish() {
	p.done = true
	delete(p.eng.live, p)
}

// kill unwinds p if it has started and discards it if it has not.
func (p *Proc) kill() {
	p.stop()
	p.finish() // a process that never started has no coroutine body to do it
}

// wake schedules the engine to resume p at the current time.
func (p *Proc) wake() { p.eng.schedule(p.eng.now, KindProc, p, nil) }

// Sleep blocks the process for d of virtual time.
//
// Under Run, when nothing else is due before the wake-up — the lane is
// empty and both heaps' earliest events are later than now+d — the wake-up
// would be the very next event, so the process resumes in place: it takes
// the wake-up's sequence number, the monitor sees the wake-up scheduled
// and the current event end with the pending counts they would have had,
// the clock moves to now+d, and the process goes on, its run now
// dispatched as KindProc, with no push, pop or coroutine switch. Every
// event keeps its time, kind and sequence number, and every Monitor call
// its arguments. An equal-time event in a heap comes first (it was
// scheduled earlier), so it rules the shortcut out; so does Stop, so that
// Run still returns after the current event. Ending the current event here
// is exact because the only event that resumes a process is its own
// KindProc wake-up, which does so as its last act.
func (p *Proc) Sleep(d units.Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v in %s", d, p.name))
	}
	e := p.eng
	t := e.now + d
	if e.running && !e.stopped && e.lane.Len() == 0 && !e.heapDue(t) {
		e.seq++
		if e.mon != nil {
			n := e.Pending() + 1 // the lane is empty
			e.mon.Scheduled(KindProc, n)
			e.mon.Dispatched(e.kind, n)
		}
		e.now = t
		e.kind, e.evSeq = KindProc, e.seq
		return
	}
	e.schedule(t, KindProc, p, nil)
	p.park()
}

// Yield blocks the process and immediately reschedules it, letting other
// work scheduled at the same instant run first.
func (p *Proc) Yield() { p.Sleep(0) }
