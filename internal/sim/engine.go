// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock by executing scheduled events in
// (time, sequence) order. On top of raw events it offers blocking
// *processes* (coroutines the event loop resumes and that hand control
// back when they block, in the style of SimPy), counting semaphore
// *resources* with priorities, condition *signals*, and FIFO *queues*. A
// process waits on any of them by parking; a continuation — a callback
// chain on the event loop — by Resource.AcquireFunc, Signal.WaitFunc or
// Queue.WaitFunc, and is then resumed by the same event that would have
// woken a process. All scheduling is deterministic: ties are broken by
// insertion order and the only source of randomness is an explicitly
// seeded generator.
//
// The engine is single-threaded: the event loop and every process share
// one thread of control, passed by a direct coroutine switch, so events
// and process steps never run concurrently and simulation code needs no
// locks. Scheduling an event, dispatching it and resuming a process
// allocate nothing. Two shortcuts keep that order while doing less work
// per event: an event due at the current instant waits in a FIFO lane
// instead of the heap, and under Run a Sleep whose wake-up would be the
// very next event goes on in place, with no coroutine switch (Proc.Sleep).
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
	KindProc                // process wake-ups and continuation steps that stand in for them
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
//
// The calls describe the schedule, not the data structures behind it: a
// Sleep resumed in place (Proc.Sleep) makes the Scheduled and Dispatched
// calls its wake-up event would have caused, with the same pending counts,
// although no event is queued.
type Monitor interface {
	// Scheduled runs after an event is queued; pending is the number of
	// events pending, the new one included.
	Scheduled(kind Kind, pending int)
	// Dispatched runs after an event's callback returns; pending is the
	// number of events pending at that instant.
	Dispatched(kind Kind, pending int)
}

// Engine is a discrete-event simulator instance.
type Engine struct {
	now units.Time
	// events holds what is due after now, and lane what is due at now. An
	// event scheduled while the clock stands at its own time goes to the
	// lane; one already in the heap for that instant was scheduled earlier,
	// when the clock stood before it, so it comes first, and the lane is
	// in sequence order by construction.
	events eventHeap
	lane   fifo[event]
	seq    int64
	// kind is the kind of the event being dispatched; a Sleep resumed in
	// place turns the rest of the dispatch into a KindProc one.
	kind Kind
	// running is true inside Run, the one loop under which a Sleep may
	// resume in place (Step and RunUntil return after a bounded amount of
	// work, which a lone sleeper resuming in place would never allow).
	running bool
	stopped bool
	live    map[*Proc]struct{}
	rng     *rand.Rand
	mon     Monitor
}

// event is one queued entry, 32 bytes. A process wake-up carries the
// process itself (proc != nil) so the hot Sleep/wake path needs no
// closure; every other event carries its callback in fn. key packs the
// sequence number above the kind's byte, so comparing keys compares
// sequence numbers.
type event struct {
	at   units.Time
	key  uint64
	proc *Proc
	fn   func()
}

func (ev *event) kind() Kind { return Kind(ev.key) }

// eventHeap is a 4-ary min-heap of events ordered by (at, seq), held by
// value so a push or pop moves structs inside one backing array and never
// allocates once the array has grown to the run's high-water mark. Four
// children per node halve the depth of a binary heap, and a node's
// children share a cache line or two.
type eventHeap []event

func (a *event) before(b *event) bool {
	return a.at < b.at || a.at == b.at && a.key < b.key
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
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
		first := 4*i + 1
		if first >= n {
			break
		}
		child := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if s[c].before(&s[child]) {
				child = c
			}
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
	e.schedule(t, kind, nil, fn)
}

// schedule queues a wake-up of p, or a call of fn, at t under the next
// sequence number.
func (e *Engine) schedule(t units.Time, kind Kind, p *Proc, fn func()) {
	e.seq++
	ev := event{at: t, key: uint64(e.seq)<<8 | uint64(kind), proc: p, fn: fn}
	if t == e.now {
		e.lane.push(ev)
	} else {
		e.events.push(ev)
	}
	if e.mon != nil {
		e.mon.Scheduled(kind, e.Pending())
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
	var ev event
	switch {
	case e.lane.len() > 0 && (len(e.events) == 0 || e.events[0].at != e.now):
		ev = e.lane.pop()
	case len(e.events) > 0:
		ev = e.events.pop()
		e.now = ev.at
	default:
		return false
	}
	e.kind = ev.kind()
	if ev.proc != nil {
		e.deliver(ev.proc)
	} else {
		ev.fn()
	}
	if e.mon != nil {
		e.mon.Dispatched(e.kind, e.Pending())
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
	for !e.stopped && (e.lane.len() > 0 && e.now <= t || len(e.events) > 0 && e.events[0].at <= t) {
		e.Step()
	}
	if !e.stopped && t > e.now {
		e.now = t
	}
}

// Stop halts Run/RunUntil after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.events) + e.lane.len() }

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
