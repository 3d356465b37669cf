// Package engine is the simulator's self-observatory: a meta-profiler over
// the discrete-event core that measures the *real* work the simulator does
// — events dispatched per kind, event-queue depth and timer high-water
// marks, kernel charge counts, and (advisory) wall-clock nanoseconds and
// heap allocations attributed per event kind — as opposed to every other
// obs layer, which measures the *simulated* system in virtual time.
//
// Two field classes come out of a run, and the split is load-bearing for
// CI (see internal/exp/compare.go):
//
//   - Deterministic: counts derived purely from the virtual event sequence
//     (events by kind, pending-event high-waters, kernel charges). The
//     same seed reproduces them byte-for-byte on any machine, so the
//     simbench gate diffs them exactly.
//
//   - Advisory: wall-clock time and allocation counts. These depend on
//     the machine, the Go version, GC timing, and pool warm-up, so they
//     are committed for trend-tracking but never failed on.
//
// The observer implements sim.Monitor. Its inner-loop callbacks are pure
// integer arithmetic and allocate nothing; the clock and
// runtime.ReadMemStats are consulted only every sliceLen dispatches, with
// the slice's deltas attributed to event kinds proportionally to the
// slice's kind mix. Disabled (no monitor installed, nil *Observer hooks)
// the whole layer is one nil check per event and allocates zero bytes.
package engine

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// sliceLen is the dispatch-slice length between wall-clock/memstats
// samples: long enough to keep runtime.ReadMemStats (a stop-the-world
// sampler) far out of the inner loop, short enough that attribution by
// slice kind mix tracks workload phases.
const sliceLen = 4096

// Observer accumulates engine meta-observations. One observer may watch
// several engines in sequence (the simbench soak workload runs 22 seeded
// testbeds through one observer); counts simply accumulate. The zero
// value is ready to use after Attach (or a direct SetMonitor) — a nil
// *Observer is the disabled layer: every method is a no-op.
type Observer struct {
	// Deterministic: pure functions of the virtual event sequence.
	events    [sim.NumKinds]int64
	pending   [sim.NumKinds]int64
	pendingHW [sim.NumKinds]int64
	queueHW   int64

	kernCharges int64 // Work/Ctx.Charge calls
	kernSlices  int64 // quantum slices issued by those charges

	// Advisory: wall clock and allocations, sampled per slice.
	wallNs      [sim.NumKinds]int64
	allocsBy    [sim.NumKinds]int64
	allocs      int64
	allocBytes  int64
	sliceEvents [sim.NumKinds]int64
	sliceCount  int64
	sliceStart  time.Time
	lastMallocs uint64
	lastBytes   uint64
	ms          runtime.MemStats // reused across slices: no per-slice alloc
	open        bool
}

// New returns an empty observer.
func New() *Observer { return &Observer{} }

// Attach installs the observer as eng's monitor and opens the first
// measurement slice. Call it before the simulation schedules work so the
// pending-event accounting sees every push.
func (o *Observer) Attach(eng *sim.Engine) {
	if o == nil {
		return
	}
	o.openSlice()
	eng.SetMonitor(o)
}

// openSlice stamps the wall clock and allocator baselines for the next
// dispatch slice.
func (o *Observer) openSlice() {
	runtime.ReadMemStats(&o.ms)
	o.lastMallocs = o.ms.Mallocs
	o.lastBytes = o.ms.TotalAlloc
	o.sliceStart = time.Now()
	o.open = true
}

// closeSlice folds the finished slice's wall-clock and allocation deltas
// into the per-kind advisory totals, split proportionally to the slice's
// event-kind mix (remainders land on the slice's dominant kind), then
// reopens. Proportional attribution is honest only at slice granularity —
// which is why these fields are advisory, never exact-diffed.
func (o *Observer) closeSlice() {
	if o.sliceCount == 0 {
		return
	}
	if !o.open {
		// Monitor installed without Attach: no baselines yet; start
		// measuring from here.
		o.clearSlice()
		o.openSlice()
		return
	}
	wall := time.Since(o.sliceStart).Nanoseconds()
	runtime.ReadMemStats(&o.ms)
	mallocs := int64(o.ms.Mallocs - o.lastMallocs)
	bytes := int64(o.ms.TotalAlloc - o.lastBytes)
	o.allocs += mallocs
	o.allocBytes += bytes

	var dominant sim.Kind
	var wallRem, allocRem = wall, mallocs
	for k := sim.Kind(0); k < sim.NumKinds; k++ {
		n := o.sliceEvents[k]
		if n > o.sliceEvents[dominant] {
			dominant = k
		}
		w := wall * n / o.sliceCount
		a := mallocs * n / o.sliceCount
		o.wallNs[k] += w
		o.allocsBy[k] += a
		wallRem -= w
		allocRem -= a
	}
	o.wallNs[dominant] += wallRem
	o.allocsBy[dominant] += allocRem
	o.clearSlice()
	// Reuse the sample just taken as the next slice's baseline instead of
	// reading MemStats a second time.
	o.lastMallocs = o.ms.Mallocs
	o.lastBytes = o.ms.TotalAlloc
	o.sliceStart = time.Now()
}

func (o *Observer) clearSlice() {
	for k := range o.sliceEvents {
		o.sliceEvents[k] = 0
	}
	o.sliceCount = 0
}

// Scheduled implements sim.Monitor: per-kind pending counts and the queue
// depth high-water.
func (o *Observer) Scheduled(kind sim.Kind, pending int) {
	if o == nil {
		return
	}
	o.pending[kind]++
	if o.pending[kind] > o.pendingHW[kind] {
		o.pendingHW[kind] = o.pending[kind]
	}
	if int64(pending) > o.queueHW {
		o.queueHW = int64(pending)
	}
}

// Dispatched implements sim.Monitor: per-kind dispatch counts and the
// slice clock.
func (o *Observer) Dispatched(kind sim.Kind, pending int) {
	if o == nil {
		return
	}
	o.events[kind]++
	// Events scheduled before Attach dispatch without a matching
	// Scheduled; clamp instead of going negative.
	if o.pending[kind] > 0 {
		o.pending[kind]--
	}
	o.sliceEvents[kind]++
	if o.sliceCount++; o.sliceCount >= sliceLen {
		o.closeSlice()
	}
}

// KernCharge counts one kernel Work/Ctx.Charge call. Nil-safe: the disabled
// path is one nil check, zero allocations.
func (o *Observer) KernCharge() {
	if o != nil {
		o.kernCharges++
	}
}

// KernSlice counts one quantum slice issued by a kernel charge (each
// slice is a CPU acquire + sleep + release — the dominant source of proc
// events under load).
func (o *Observer) KernSlice() {
	if o != nil {
		o.kernSlices++
	}
}

// KindCounts is one value per event kind, in sim.Kind order.
type KindCounts struct {
	Generic int64 `json:"generic"`
	Proc    int64 `json:"proc"`
	Timer   int64 `json:"timer"`
	Wire    int64 `json:"wire"`
	DMA     int64 `json:"dma"`
}

func kindCounts(a [sim.NumKinds]int64) KindCounts {
	return KindCounts{
		Generic: a[sim.KindGeneric],
		Proc:    a[sim.KindProc],
		Timer:   a[sim.KindTimer],
		Wire:    a[sim.KindWire],
		DMA:     a[sim.KindDMA],
	}
}

// Total sums the per-kind values.
func (k KindCounts) Total() int64 {
	return k.Generic + k.Proc + k.Timer + k.Wire + k.DMA
}

// Deterministic is the exact-diffed section of a snapshot: identical
// seeds reproduce it byte-for-byte on any machine and Go version.
type Deterministic struct {
	EventsTotal int64      `json:"events_total"`
	Events      KindCounts `json:"events_by_kind"`
	// QueueDepthHW is the event-heap depth high-water mark.
	QueueDepthHW int64 `json:"queue_depth_hw"`
	// PendingHW holds per-kind pending-event high-waters; the timer entry
	// is the timer-wheel occupancy peak.
	PendingHW   KindCounts `json:"pending_hw"`
	KernCharges int64      `json:"kern_charges"`
	KernSlices  int64      `json:"kern_slices"`
}

// Advisory is the wall-clock section: machine- and Go-version-dependent,
// reported in diffs but never failed on.
type Advisory struct {
	WallNs       int64      `json:"wall_ns"`
	NsPerEvent   float64    `json:"ns_per_event"`
	EventsPerSec float64    `json:"events_per_sec"`
	Allocs       int64      `json:"allocs"`
	AllocBytes   int64      `json:"alloc_bytes"`
	AllocsPerEv  float64    `json:"allocs_per_event"`
	WallNsByKind KindCounts `json:"wall_ns_by_kind"`
	AllocsByKind KindCounts `json:"allocs_by_kind"`
}

// Snapshot is an observer's exported state.
type Snapshot struct {
	Det Deterministic `json:"deterministic"`
	Adv Advisory      `json:"advisory"`
}

// Snapshot closes the open slice and exports the accumulated state. The
// observer keeps accumulating afterwards; successive snapshots are
// cumulative.
func (o *Observer) Snapshot() Snapshot {
	if o == nil {
		return Snapshot{}
	}
	o.closeSlice()
	var s Snapshot
	s.Det = Deterministic{
		Events:       kindCounts(o.events),
		QueueDepthHW: o.queueHW,
		PendingHW:    kindCounts(o.pendingHW),
		KernCharges:  o.kernCharges,
		KernSlices:   o.kernSlices,
	}
	s.Det.EventsTotal = s.Det.Events.Total()
	s.Adv = Advisory{
		WallNs:       kindCounts(o.wallNs).Total(),
		Allocs:       o.allocs,
		AllocBytes:   o.allocBytes,
		WallNsByKind: kindCounts(o.wallNs),
		AllocsByKind: kindCounts(o.allocsBy),
	}
	if n := s.Det.EventsTotal; n > 0 {
		s.Adv.NsPerEvent = round2(float64(s.Adv.WallNs) / float64(n))
		s.Adv.AllocsPerEv = round2(float64(s.Adv.Allocs) / float64(n))
	}
	if s.Adv.WallNs > 0 {
		s.Adv.EventsPerSec = round2(float64(s.Det.EventsTotal) * 1e9 / float64(s.Adv.WallNs))
	}
	return s
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }

// JSON renders the snapshot (indented, newline-terminated, deterministic
// field order).
func (s Snapshot) JSON() []byte {
	return obs.JSON(s)
}

// Format renders a human summary.
func (s Snapshot) Format() string {
	var b strings.Builder
	d, a := s.Det, s.Adv
	fmt.Fprintf(&b, "events %d (proc %d, timer %d, wire %d, dma %d, generic %d)  queue hw %d  timer hw %d\n",
		d.EventsTotal, d.Events.Proc, d.Events.Timer, d.Events.Wire, d.Events.DMA, d.Events.Generic,
		d.QueueDepthHW, d.PendingHW.Timer)
	fmt.Fprintf(&b, "kern charges %d (slices %d)\n", d.KernCharges, d.KernSlices)
	fmt.Fprintf(&b, "advisory: %.2f ms wall, %.0f events/sec, %.1f ns/event, %.2f allocs/event (%d B total)\n",
		float64(a.WallNs)/1e6, a.EventsPerSec, a.NsPerEvent, a.AllocsPerEv, a.AllocBytes)
	return b.String()
}
