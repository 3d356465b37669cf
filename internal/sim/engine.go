// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock by executing scheduled events in
// (time, sequence) order. On top of raw events it offers blocking
// *processes* (coroutines the event loop resumes and that hand control
// back when they block, in the style of SimPy), counting semaphore
// *resources* with priorities (a process waits for one by parking, a
// callback chain on the event loop by AcquireFunc), condition *signals*,
// and FIFO *queues*. All
// scheduling is deterministic: ties are broken by insertion order and the
// only source of randomness is an explicitly seeded generator.
//
// The engine is single-threaded: the event loop and every process share
// one thread of control, passed by a direct coroutine switch, so events
// and process steps never run concurrently and simulation code needs no
// locks. Scheduling an event, dispatching it and resuming a process
// allocate nothing.
package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/units"
)

// Kind classifies scheduled events for the engine meta-observer
// (internal/obs/engine): it answers "what species of real work is the
// simulator doing" without touching virtual-time semantics. Untagged
// events are KindGeneric.
type Kind uint8

// Event kinds. The order is part of the exported counter layout.
const (
	KindGeneric Kind = iota // untagged events
	KindProc                // process wake-ups and CPU grants to continuations
	KindTimer               // protocol timers and retry pumps
	KindWire                // network propagation and arrival
	KindDMA                 // adaptor DMA completions
	NumKinds
)

var kindNames = [NumKinds]string{"generic", "proc", "timer", "wire", "dma"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Monitor observes the engine's real (wall-clock) work: it is called from
// the scheduling and dispatch inner loops, so implementations must be
// cheap (integer arithmetic; no allocation). When no monitor is set the
// engine pays exactly one nil check per event.
type Monitor interface {
	// Scheduled runs after an event is pushed; pending is the heap size
	// including the new event.
	Scheduled(kind Kind, pending int)
	// Dispatched runs after an event's callback returns; pending is the
	// heap size at that instant.
	Dispatched(kind Kind, pending int)
}

// Engine is a discrete-event simulator instance.
type Engine struct {
	now     units.Time
	events  eventHeap
	seq     int64
	running bool
	stopped bool
	live    map[*Proc]struct{}
	rng     *rand.Rand
	mon     Monitor
}

// event is one heap entry. A process wake-up carries the process itself
// (proc != nil) so the hot Sleep/wake path needs no closure; every other
// event carries its callback in fn.
type event struct {
	at   units.Time
	seq  int64
	kind Kind
	proc *Proc
	fn   func()
}

// eventHeap is a binary min-heap of events ordered by (at, seq), held by
// value so a push or pop moves structs inside one backing array and never
// allocates once the array has grown to the run's high-water mark.
type eventHeap []event

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	ev := s[n]
	s[n] = event{} // drop the callback and process references
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s[r].before(&s[child]) {
			child = r
		}
		if !s[child].before(&ev) {
			break
		}
		s[i] = s[child]
		i = child
	}
	s[i] = ev
	return top
}

// NewEngine returns an engine with its clock at zero and a deterministic
// random source seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		live: make(map[*Proc]struct{}),
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() units.Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// SetMonitor installs (or, with nil, removes) the engine meta-observer.
// Install it before the simulation schedules work so the monitor's
// pending-event accounting sees every push.
func (e *Engine) SetMonitor(m Monitor) { e.mon = m }

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// it would silently corrupt causality.
func (e *Engine) At(t units.Time, fn func()) {
	e.AtKind(t, KindGeneric, fn)
}

// AtKind is At with an explicit event kind for the meta-observer. The
// kind has no effect on scheduling: it only labels the dispatch counters.
func (e *Engine) AtKind(t units.Time, kind Kind, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.schedule(event{at: t, kind: kind, fn: fn})
}

// schedule stamps ev with the next sequence number and queues it.
func (e *Engine) schedule(ev event) {
	e.seq++
	ev.seq = e.seq
	e.events.push(ev)
	if e.mon != nil {
		e.mon.Scheduled(ev.kind, len(e.events))
	}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d units.Time, fn func()) {
	e.AfterKind(d, KindGeneric, fn)
}

// AfterKind is After with an explicit event kind for the meta-observer.
func (e *Engine) AfterKind(d units.Time, kind Kind, fn func()) {
	if d < 0 {
		d = 0
	}
	e.AtKind(e.now+d, kind, fn)
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events.pop()
	e.now = ev.at
	if ev.proc != nil {
		e.deliver(ev.proc)
	} else {
		ev.fn()
	}
	if e.mon != nil {
		e.mon.Dispatched(ev.kind, len(e.events))
	}
	return true
}

// Run executes events until none remain or Stop is called. Processes that
// are blocked with no pending event to wake them simply remain parked.
func (e *Engine) Run() {
	e.stopped = false
	e.running = true
	defer func() { e.running = false }()
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with time ≤ t, then sets the clock to t.
func (e *Engine) RunUntil(t units.Time) {
	e.stopped = false
	e.running = true
	defer func() { e.running = false }()
	for !e.stopped && len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if !e.stopped && t > e.now {
		e.now = t
	}
}

// Stop halts Run/RunUntil after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.events) }

// LiveProcs returns the number of processes that have been spawned and have
// not yet finished (they may be runnable or parked).
func (e *Engine) LiveProcs() int { return len(e.live) }

// LiveProcNames returns the (sorted) names of live processes. After a
// drained run this is empty; after a wedge it names exactly the parked
// procs, which is usually enough to identify the subsystem that lost a
// wakeup.
func (e *Engine) LiveProcNames() []string {
	var out []string
	for p := range e.live {
		out = append(out, p.name)
	}
	sort.Strings(out)
	return out
}

// KillAll terminates every live process: a process that has started is
// unwound from the point where it blocked (its own defers run, nothing
// else of it does), and one that was spawned but never ran is discarded.
// It is intended for teardown after a simulation completes and must not be
// called from inside a process.
func (e *Engine) KillAll() {
	for p := range e.live {
		p.kill()
	}
}
