// Package kern models the host operating system context the protocol stack
// runs in: a single CPU with priority scheduling and preemption at quantum
// granularity, per-task user/system time accounting (including the
// interrupt-time misattribution the paper's measurement methodology works
// around, Section 7.1), an interrupt service daemon, and the VM operations
// (pin/unpin/map) whose costs Table 2 reports.
//
// All CPU work in the simulation flows through Kernel.Work or an execution
// context's Ctx.Charge so that every virtual cycle lands in exactly one
// accounting category and one task's user or system time.
package kern

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/mbuf"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/obs/engine"
	"repro/internal/obs/ledger"
	"repro/internal/obs/prof"
	"repro/internal/sim"
	"repro/internal/units"
)

// Scheduling priorities (lower value is served first).
const (
	PrioIntr = 0  // interrupt daemon
	PrioKern = 10 // in-kernel daemons
	PrioUser = 20 // normal user tasks (ttcp)
	PrioIdle = 40 // low-priority soaker (util)
)

// Category classifies where CPU time goes, for the per-byte vs per-packet
// breakdown of Section 7.3.
type Category int

// Accounting categories.
const (
	CatApp     Category = iota // application-level work
	CatSyscall                 // system call entry/exit
	CatCopy                    // memory-to-memory data copying
	CatCsum                    // software checksum reads
	CatVM                      // pin/unpin/map operations
	CatProto                   // transport + network protocol processing
	CatDriver                  // device driver request handling
	CatIntr                    // interrupt dispatch
	numCategories
)

var catNames = [numCategories]string{
	"app", "syscall", "copy", "csum", "vm", "proto", "driver", "intr",
}

// CategoryNames returns the category labels indexed by Category value, for
// consumers (the profiler) that need the axis without importing kern's
// types.
func CategoryNames() []string {
	return catNames[:]
}

func (c Category) String() string {
	if c >= 0 && int(c) < len(catNames) {
		return catNames[c]
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// Task is a schedulable context: a user process or an in-kernel thread.
// Its accumulated times are what the simulated `time`-style accounting
// reports.
type Task struct {
	Name  string
	Prio  int
	Space *mem.AddrSpace

	UserTime units.Time
	SysTime  units.Time
}

// Kernel is one host's OS context.
type Kernel struct {
	Name string
	Eng  *sim.Engine
	Mach *cost.Machine

	// Quantum is the preemption granularity: long CPU operations are
	// sliced so higher-priority work (interrupts) gets in between slices.
	Quantum units.Time

	cpu   *sim.Resource
	cur   *Task // task most recently running on the CPU
	byCat [numCategories]units.Time
	busy  units.Time
	intrQ *sim.Queue[intrWork]

	// Obs is the host's telemetry registry (nil when disabled). Set by
	// the assembler (core.AddHost) before subsystems are built, so each
	// constructor can register its metrics through it.
	Obs *obs.Registry

	// Prof is the host's root profiler node (nil when profiling is
	// disabled). Every Work or Ctx.Charge call lands on a node under it —
	// explicitly via Ctx.In layer frames, or on a per-task/interrupt
	// fallback node — so the profile always sums exactly to busy.
	Prof *prof.Node

	// Led is the host's data-touch ledger hook (nil when the ledger is
	// disabled: the recording fast path is a single nil check). The CPU
	// data primitives record through it; stream coordinates come from
	// Ctx.OnStream/OnStreamProv.
	Led *ledger.Hook

	// EngObs is the simulator meta-observer (nil when disabled: each hook
	// is a single nil check). It counts the real work the kernel model
	// generates — charges and quantum slices — beside the engine's own
	// event-dispatch counters.
	EngObs *engine.Observer

	// IntrPosts counts interrupt work posted (PostIntr).
	IntrPosts int

	// AllocFault, when set (fault injection), reports transient mbuf/page
	// allocation failure; allocation sites in process context call
	// WaitAlloc to back off until it clears. Nil means allocations never
	// fail — the guard is a single nil check.
	AllocFault func() bool
	// AllocFailures counts allocation attempts that hit a fault.
	AllocFailures int

	// KernelTask absorbs kernel work with no better owner.
	KernelTask *Task

	// Mbufs is the host's mbuf allocator: every layer on the host takes
	// its mbuf headers and clusters from it.
	Mbufs *mbuf.Pool

	// Sock counts the socket layer's calls across every stream socket of
	// the host, and Dgram the receive calls of every datagram socket
	// (internal/socket increments and exports both).
	Sock, Dgram SockStats
}

// SockStats are a host's socket-layer counts: which path each write and
// each outboard read chunk took (Section 4.4.3), and how often a call
// waited for its outstanding DMAs.
type SockStats struct {
	UIOWrites, CopyWrites int
	UIOReads, CopyReads   int
	// AlignedWrites counts misaligned writes salvaged by the Section 4.5
	// short-first-packet optimization.
	AlignedWrites int
	// DMAWaitWakeups counts calls that slept on outstanding DMAs.
	DMAWaitWakeups int
}

// Allocation-failure backoff: exponential from allocBackoffBase, capped at
// allocBackoffMax — bounded, so a transient fault costs bounded latency
// and a persistent one shows up as a stuck-progress soak failure rather
// than a silent drop.
const (
	allocBackoffBase = 50 * units.Microsecond
	allocBackoffMax  = 2 * units.Millisecond
)

// WaitAlloc models an mbuf/page allocation in process context: when the
// fault hook reports exhaustion, the caller backs off (exponentially,
// bounded) and retries until the allocation would succeed.
func (k *Kernel) WaitAlloc(p *sim.Proc) {
	if k.AllocFault == nil {
		return
	}
	d := allocBackoffBase
	for k.AllocFault() {
		k.AllocFailures++
		p.Sleep(d)
		if d *= 2; d > allocBackoffMax {
			d = allocBackoffMax
		}
	}
}

type intrWork struct {
	name string
	fn   func(*sim.Proc)
}

// New returns a kernel for machine mach on engine eng.
func New(name string, eng *sim.Engine, mach *cost.Machine) *Kernel {
	k := &Kernel{
		Name:    name,
		Eng:     eng,
		Mach:    mach,
		Quantum: 100 * units.Microsecond,
		cpu:     sim.NewResource(eng, 1),
		intrQ:   sim.NewQueue[intrWork](eng),
		Mbufs:   new(mbuf.Pool),
	}
	k.KernelTask = k.NewTask("kernel", PrioKern, nil)
	k.cur = k.KernelTask
	eng.Go(name+"/intrd", k.intrd)
	return k
}

// NewTask registers a new schedulable task.
func (k *Kernel) NewTask(name string, prio int, space *mem.AddrSpace) *Task {
	return &Task{Name: name, Prio: prio, Space: space}
}

// intrd is the interrupt service daemon: it drains posted interrupt work
// at the highest priority. Dispatch cost is charged — as on the real
// system — to whichever task happened to be running (Section 7.1's
// misattribution, which the util methodology corrects for).
func (k *Kernel) intrd(p *sim.Proc) {
	for {
		w := k.intrQ.Get(p)
		k.intrWorkAt(p, k.Mach.InterruptCost, CatIntr, nil, 0)
		w.fn(p)
	}
}

// PostIntr queues fn to run in interrupt context. Safe to call from any
// simulation context (device models post completions from event callbacks).
func (k *Kernel) PostIntr(name string, fn func(*sim.Proc)) {
	k.IntrPosts++
	k.intrQ.Put(intrWork{name: name, fn: fn})
}

// RegisterObs registers the kernel's metrics on k.Obs: the interrupt and
// allocation-failure counts and the per-category CPU time, each read from
// the kernel's own accounting.
func (k *Kernel) RegisterObs() {
	r := k.Obs
	if r == nil {
		return
	}
	r.Func("kern.intr_posts", func() int64 { return int64(k.IntrPosts) })
	r.Func("kern.alloc_failures", func() int64 { return int64(k.AllocFailures) })
	for c := Category(0); c < numCategories; c++ {
		c := c
		r.Func("kern.cpu_ns."+c.String(), func() int64 { return int64(k.byCat[c]) })
	}
	r.Func("kern.cpu_busy_ns", func() int64 { return int64(k.busy) })
}

// curSys charges d of system time to the currently running task.
func (k *Kernel) curSys(d units.Time) { k.cur.SysTime += d }

// chargeSlices runs d of CPU work at the given priority, slicing at
// quantum granularity so higher-priority work can preempt, and charging
// each slice through charge.
func (k *Kernel) chargeSlices(p *sim.Proc, prio int, d units.Time, cat Category, charge func(units.Time)) {
	for d > 0 {
		slice := d
		if slice > k.Quantum {
			slice = k.Quantum
		}
		k.EngObs.KernSlice()
		k.cpu.Acquire(p, prio)
		p.Sleep(slice)
		k.byCat[cat] += slice
		k.busy += slice
		charge(slice)
		k.cpu.Release()
		d -= slice
	}
}

// taskNode returns the profiler fallback node for process-context work with
// no explicit layer stack: a per-task child of the host root. Nil (free)
// when profiling is off.
func (k *Kernel) taskNode(t *Task) *prof.Node {
	if k.Prof == nil {
		return nil
	}
	return k.Prof.Child(t.Name)
}

// intrNode is the fallback for interrupt-context work with no explicit
// stack.
func (k *Kernel) intrNode() *prof.Node {
	if k.Prof == nil {
		return nil
	}
	return k.Prof.Child("intr")
}

// workAt is Work with an explicit profiler attribution: node (or the task's
// fallback node when nil) accumulates exactly d in cat for flow, before the
// quantum slicing, so the profile total always equals busy.
func (k *Kernel) workAt(p *sim.Proc, t *Task, d units.Time, cat Category, sys bool, node *prof.Node, flow int) {
	if d <= 0 {
		return
	}
	if node == nil {
		node = k.taskNode(t)
	}
	k.EngObs.KernCharge()
	node.Add(int(cat), flow, int64(d))
	k.chargeSlices(p, t.Prio, d, cat, func(slice units.Time) {
		k.cur = t
		if sys {
			t.SysTime += slice
		} else {
			t.UserTime += slice
		}
	})
}

// intrWorkAt runs d of CPU work in interrupt/kernel context at top
// priority; the time is charged as system time to whichever task is
// currently scheduled (the misattribution the paper describes), and the
// profiler records it on node (the interrupt fallback node when nil).
func (k *Kernel) intrWorkAt(p *sim.Proc, d units.Time, cat Category, node *prof.Node, flow int) {
	if d <= 0 {
		return
	}
	if node == nil {
		node = k.intrNode()
	}
	k.EngObs.KernCharge()
	node.Add(int(cat), flow, int64(d))
	k.chargeSlices(p, PrioIntr, d, cat, k.curSys)
}

// Work runs d of CPU work on behalf of task t. If sys is true the time is
// charged as system time (kernel work done for the task); otherwise as
// user time. The caller must be in process context.
func (k *Kernel) Work(p *sim.Proc, t *Task, d units.Time, cat Category, sys bool) {
	k.workAt(p, t, d, cat, sys, nil, 0)
}

// soaker is the state of one Soak: a compute-bound task as a continuation
// on the event loop. Its callbacks are bound once so that a slice
// allocates nothing.
type soaker struct {
	k       *Kernel
	t       *Task
	cat     Category
	stopped func() bool
	slice   units.Time // length of the slice in progress

	onGrant, onSliceEnd func()
}

// Soak keeps task t computing in cat, as user time, one Quantum after
// another from the current instant until stopped reports true at a slice
// boundary: the paper's `util` process, which takes every cycle nothing
// else wants. It is `for !stopped() { k.Work(p, t, k.Quantum, cat, false) }`
// without the process: a soaker never blocks on anything but the CPU, so
// each step is a plain event-loop callback. The steps schedule exactly the
// events that loop would — a start event now, a grant event when the CPU
// was busy, one event per slice end — and do its accounting at the same
// points, so virtual time and every observer count are those of the loop
// (kern_test.go keeps the loop as the oracle).
func (k *Kernel) Soak(t *Task, cat Category, stopped func() bool) {
	s := &soaker{k: k, t: t, cat: cat, stopped: stopped}
	s.onGrant, s.onSliceEnd = s.granted, s.sliceEnd
	k.Eng.AfterKind(0, sim.KindProc, s.start)
}

// start charges the next quantum and asks for the CPU.
func (s *soaker) start() {
	if s.stopped() {
		return
	}
	k := s.k
	s.slice = k.Quantum
	k.EngObs.KernCharge()
	k.taskNode(s.t).Add(int(s.cat), 0, int64(s.slice))
	k.EngObs.KernSlice()
	if k.cpu.AcquireFunc(s.t.Prio, s.onGrant) {
		s.granted()
	}
}

// granted holds the CPU for the slice.
func (s *soaker) granted() {
	s.k.Eng.AfterKind(s.slice, sim.KindProc, s.onSliceEnd)
}

// sliceEnd accounts the finished slice, gives the CPU up — to a waiter of
// higher priority, if there is one — and starts over.
func (s *soaker) sliceEnd() {
	k := s.k
	k.byCat[s.cat] += s.slice
	k.busy += s.slice
	k.cur = s.t
	s.t.UserTime += s.slice
	k.cpu.Release()
	s.start()
}

// CategoryTime returns the accumulated CPU time in category c.
func (k *Kernel) CategoryTime(c Category) units.Time { return k.byCat[c] }

// BusyTime returns total CPU busy time since creation.
func (k *Kernel) BusyTime() units.Time { return k.busy }

// CategoryBreakdown returns a copy of the per-category CPU time table.
func (k *Kernel) CategoryBreakdown() map[string]units.Time {
	m := make(map[string]units.Time, numCategories)
	for c := Category(0); c < numCategories; c++ {
		if k.byCat[c] > 0 {
			m[c.String()] = k.byCat[c]
		}
	}
	return m
}
