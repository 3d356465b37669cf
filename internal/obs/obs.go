// Package obs is the unified telemetry layer for the simulated stack: a
// per-host metrics registry (pull functions and gauges), virtual-time
// histograms, and packet-scoped data-path spans, with deterministic
// exporters (human-readable table, JSON, Chrome trace-event JSON).
//
// A span is also its packet's one recorder handle: it carries the data
// segment's identity (Seg: flow, stream byte range, payload offset,
// descriptor, retransmit flag), which the trace, the causal critical-path
// recorder and the data-touch ledger (obs/ledger) all read. With the trace
// off a span still carries its Seg for the ledger, and its stage, latency
// and causal methods are no-ops.
//
// Two properties shape the design:
//
//   - Determinism. The simulation is a deterministic discrete-event system,
//     so identical seeds must produce byte-identical snapshots; every
//     exporter iterates in a defined order (sorted metric names, host
//     creation order, span/event creation order) and never ranges over a
//     map. This makes the whole telemetry layer a regression oracle.
//
//   - The registry only reads. A count is a plain field its owner always
//     increments (a Stats struct, a kernel or network field); the registry
//     re-exports it through a Func, so a count reads the same with
//     telemetry on or off and no fact is counted twice.
//
//   - Zero cost when disabled. Every hot-path hook is a method on a
//     possibly-nil pointer (*Gauge, *Span, *Trace); the nil receiver is a
//     no-op and allocates nothing, so instrumented code runs unchanged —
//     and benchmark-neutral — when telemetry is off.
//
// Telemetry charges no simulated CPU or bus time: observing the system
// never changes virtual-time results, enabled or not.
package obs

import (
	"repro/internal/units"
)

// Gauge is an instantaneous level that also tracks two high-water marks:
// an all-time one (snapshots export it under "<name>.hwm") and an
// interval one that samplers reset between measurement windows so each
// window reports its own peak, not the run's. A nil *Gauge is a valid
// no-op sink.
type Gauge struct {
	v, hwm, iwm int64
}

// Set records the current level.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.hwm {
		g.hwm = v
	}
	if v > g.iwm {
		g.iwm = v
	}
}

// Value returns the current level (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// HighWater returns the highest level ever set (0 for nil).
func (g *Gauge) HighWater() int64 {
	if g == nil {
		return 0
	}
	return g.hwm
}

// IntervalHighWater returns the highest level since the last Reset (0 for
// nil).
func (g *Gauge) IntervalHighWater() int64 {
	if g == nil {
		return 0
	}
	return g.iwm
}

// Reset starts a new measurement interval: the interval high-water mark
// drops to the current level (the peak of any window containing now is at
// least the present value). The all-time mark is untouched.
func (g *Gauge) Reset() {
	if g == nil {
		return
	}
	g.iwm = g.v
}

type entryKind int

const (
	kindGauge entryKind = iota
	kindFunc
)

type entry struct {
	name string
	kind entryKind
	g    *Gauge
	fn   func() int64
}

// Registry holds one host's named metrics. Names follow the
// "subsystem.name" convention (tcp.retransmits, cab.sdma_ops, ...).
// A nil *Registry is valid: every method is a no-op returning nil sinks,
// which is the disabled-telemetry fast path. It hands out no counter: it
// reads counts through Func and levels through Gauge.
type Registry struct {
	host    string
	tel     *Telemetry
	entries []entry
	byName  map[string]int
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if i, ok := r.byName[name]; ok {
		return r.entries[i].g
	}
	g := &Gauge{}
	r.add(entry{name: name, kind: kindGauge, g: g})
	return g
}

// Func registers a pull metric: fn is evaluated at snapshot time. It is
// how every count is exported: fn reads a field its owner keeps (Stats
// structs, CPU accounting). First registration of a name wins.
func (r *Registry) Func(name string, fn func() int64) {
	if r == nil {
		return
	}
	if _, ok := r.byName[name]; ok {
		return
	}
	r.add(entry{name: name, kind: kindFunc, fn: fn})
}

// Has reports whether name is registered (false on a nil registry), so an
// owner created many times per host registers its metrics once.
func (r *Registry) Has(name string) bool {
	if r == nil {
		return false
	}
	_, ok := r.byName[name]
	return ok
}

func (r *Registry) add(e entry) {
	if r.byName == nil {
		r.byName = make(map[string]int)
	}
	r.byName[e.name] = len(r.entries)
	r.entries = append(r.entries, e)
}

// TraceSink returns the shared data-path trace (nil when telemetry is
// disabled), for subsystems that create spans.
func (r *Registry) TraceSink() *Trace {
	if r == nil || r.tel == nil {
		return nil
	}
	return r.tel.trace
}

// Telemetry aggregates a testbed's registries and its shared data-path
// trace. Construct one per testbed with New and hand each host a Registry.
type Telemetry struct {
	trace *Trace
	regs  []*Registry
}

// New returns a Telemetry whose spans and trace events are timestamped by
// now — the simulation engine's virtual clock.
func New(now func() units.Time) *Telemetry {
	return &Telemetry{trace: NewTrace(now)}
}

// Trace returns the shared data-path trace.
func (t *Telemetry) Trace() *Trace { return t.trace }

// Crit returns the causal recorder (nil unless the trace's EnableCrit was
// called).
func (t *Telemetry) Crit() *CritRec { return t.trace.Crit() }

// Registry creates (or returns) the registry labeled host. Hosts appear in
// snapshots in creation order.
func (t *Telemetry) Registry(host string) *Registry {
	for _, r := range t.regs {
		if r.host == host {
			return r
		}
	}
	r := &Registry{host: host, tel: t}
	t.regs = append(t.regs, r)
	return r
}
