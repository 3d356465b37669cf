// Package soak runs full end-to-end transfers under adversarial fault
// plans and checks the recovery invariants that make fault injection
// meaningful: every flow ends byte-exact or in an error its case allows,
// zero resource leaks, forward progress, and counter conservation. Every
// case is seeded and deterministic — a failing case replays exactly from
// its (plan, seed) pair.
package soak

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs/engine"
	"repro/internal/obs/ledger"
	"repro/internal/socket"
	"repro/internal/units"
	"repro/internal/wire"
)

const (
	addrA = wire.Addr(0x0a000001)
	addrB = wire.Addr(0x0a000002)
	port  = 5001

	// watchWindow is the progress watchdog's sampling period. It must
	// exceed the worst-case quiet stretch of a healthy run (a maximal
	// 2s RTO backoff), so a window with no progress means a wedge.
	watchWindow = 5 * units.Second
)

// Case is one scenario: a transfer shape plus a fault plan, with the set
// of errors each flow may end in. The shape follows from the fields:
// Proto "udp" is a datagram blast, Flows 0 one unframed TCP stream, and
// Flows ≥ 1 that many framed TCP connections.
type Case struct {
	Name string
	// Plan is the fault plan spec (see fault.ParsePlan); "" runs clean.
	Plan string
	Seed int64
	// Proto is "tcp" (or "") or "udp".
	Proto string
	Mode  socket.Mode
	Flows int
	// Total and RWSize shape the transfer; Total is per flow. Zero values
	// pick 1 MB (256 KB with Flows > 1, 512 KB for UDP) and 64 KB I/O
	// (16 KB datagrams for UDP).
	Total, RWSize units.Size
	// Arbiter installs the per-flow netmem arbiter on both hosts.
	Arbiter bool
	// KeepAlive enables keepalive probing on every connection (both ends);
	// UserTimeout, when non-zero, bounds sender-side stalls. Cases whose
	// fault can silently kill one end (cabreset, peer death) need these to
	// terminate with a clean error instead of wedging.
	KeepAlive   bool
	UserTimeout units.Time
	// AllowSnd / AllowRcv are the errors a flow's writer / reader may end
	// with. A flow must either complete byte-exact or end in an allowed
	// error on the side that failed; anything else fails the case.
	AllowSnd, AllowRcv []error
	// EngObs, when set, attaches the simulator meta-observer to the
	// case's engine (simbench runs the whole matrix through one observer).
	EngObs *engine.Observer
	// CheckPools runs the case with every free list in check mode (the
	// ownership harness; see core.Testbed.CheckPools).
	CheckPools bool
}

// Fate is one TCP flow's end state.
type Fate struct {
	Delivered      units.Size
	SndErr, RcvErr error
	// Complete: the full total arrived byte-exact and both ends finished
	// cleanly.
	Complete bool

	sndOp string // the sender's failed step: "dial", "header" or "write at <offset>"
}

// Outcome is a finished case. Failures lists every violated invariant; an
// empty list means the case passed.
type Outcome struct {
	Case Case
	// Flows holds each TCP flow's fate (none for a UDP blast).
	Flows     []Fate
	Delivered units.Size
	Report    string
	Failures  []string
	// MetricsJSON is the run's telemetry snapshot.
	MetricsJSON []byte
	// FlightRec is the flight-recorder image (recent ledger and trace
	// events per host), dumped only when the watchdog declared the run
	// stuck or the audit failed; nil otherwise.
	FlightRec []byte

	// Injection schedule (virtual time): FaultAt is the earliest stateful
	// window's start, HealAt the latest heal instant (== FaultAt for an
	// instantaneous cabreset).
	FaultAt, HealAt units.Time
	// FirstGoodputAt is when the first application-level byte landed at or
	// after HealAt (0: no goodput after the fault cleared — the flows
	// died). RecoveryTime is its distance from HealAt.
	FirstGoodputAt units.Time
	RecoveryTime   units.Time
	// EndTime is the virtual time the TCP workload finished.
	EndTime units.Time

	Resets         int
	PartitionDrops int64

	// A (sender) and B (receiver) stay readable after the run so callers
	// can assert on protocol and hardware counters.
	A, B *core.Host
}

func (o *Outcome) failf(format string, args ...any) {
	o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
}

// Fingerprint renders everything deterministic about the run: delivered
// bytes, fault report, telemetry snapshot, failures, per-flow fates, and
// the first-goodput and end times. The same case must reproduce it byte
// for byte, whatever the free lists' mode.
func (o *Outcome) Fingerprint() string {
	var b strings.Builder
	fmt.Fprint(&b, o.Delivered, o.Report, string(o.MetricsJSON), o.Failures, o.FirstGoodputAt, o.EndTime)
	for _, f := range o.Flows {
		fmt.Fprint(&b, f.Delivered, f.Complete, f.SndErr, f.RcvErr)
	}
	return b.String()
}

// Run executes one case. Every flow must end byte-exact or in an allowed
// error; every drained run must leak nothing, conserve wire frames and see
// its stateful faults fire; a run whose flows all completed must also
// account for every fired fault and pass the data-touch audit.
func Run(c Case) Outcome {
	udp := c.Proto == "udp"
	if c.Total == 0 {
		switch {
		case udp:
			c.Total = 512 * units.KB
		case c.Flows > 1:
			c.Total = 256 * units.KB
		default:
			c.Total = 1 * units.MB
		}
	}
	if c.RWSize == 0 {
		c.RWSize = 64 * units.KB
		if udp {
			c.RWSize = 16 * units.KB
		}
	}
	o := Outcome{Case: c}
	r, err := newRig(&o)
	if err != nil {
		o.failf("plan: %v", err)
		return o
	}
	o.A, o.B = r.a, r.b
	for _, w := range r.inj.Windows() {
		if o.HealAt == 0 || w.Until > o.HealAt {
			o.HealAt = w.Until
		}
		if o.FaultAt == 0 || w.From < o.FaultAt {
			o.FaultAt = w.From
		}
		if w.Until == 0 {
			// An unbounded window never heals; recovery is measured against
			// the liveness bound instead, so leave HealAt at the last
			// bounded heal (or the fault instant).
			o.HealAt = max(o.HealAt, w.From)
		}
	}

	switch {
	case udp:
		r.runUDP()
	case c.Flows == 0:
		r.runTCP()
	default:
		r.runFlows()
	}
	flightRec := r.run()
	o.Delivered = r.got
	o.Report = r.inj.Report()
	o.MetricsJSON = r.tb.Tel.Snapshot().JSON()
	if o.FirstGoodputAt > o.HealAt {
		o.RecoveryTime = o.FirstGoodputAt - o.HealAt
	}
	o.Resets = r.a.CAB.Stats.Resets + r.b.CAB.Stats.Resets
	o.PartitionDrops = r.inj.Fired[fault.Partition]
	// Invariant: progress. Everything below assumes a drained run.
	if flightRec != nil {
		o.FlightRec = flightRec
		return o
	}
	complete := r.checkFates()
	// Invariant: zero leaks, even though a reset wiped descriptors
	// mid-flight; and the wire conserves frames, partitioned ones counted
	// as drops of the partition window.
	r.checkLeaks()
	r.checkWire()
	r.checkFired()
	// A flow that died in an allowed error leaves faults its stack never
	// saw and bytes no audit can cover, so the counter and touch checks
	// hold only when every flow completed.
	if complete {
		r.checkConservation()
		r.audit()
	}
	return o
}

// checkFates holds every flow to its fate: it completed byte-exact, or the
// side that failed ended in an error its case allows. It reports whether
// every flow completed.
func (r *rig) checkFates() (complete bool) {
	c, o := &r.c, r.o
	complete = true
	for f := range o.Flows {
		fl := &o.Flows[f]
		if fl.SndErr == nil && fl.RcvErr == nil {
			if fl.Delivered == c.Total {
				fl.Complete = true
				continue
			}
			o.failf("bytes: flow %d ended cleanly but delivered %v of %v", f, fl.Delivered, c.Total)
		}
		complete = false
		if fl.SndErr != nil && !errAllowed(fl.SndErr, c.AllowSnd) {
			o.failf("progress: flow %d %s: sender error %q not in the allowed set", f, fl.sndOp, fl.SndErr)
		}
		if fl.RcvErr != nil && !errAllowed(fl.RcvErr, c.AllowRcv) {
			o.failf("progress: flow %d: reader error %q not in the allowed set", f, fl.RcvErr)
		}
	}
	return complete
}

// errAllowed reports whether err matches one of the allowed sentinels.
func errAllowed(err error, allowed []error) bool {
	for _, a := range allowed {
		if errors.Is(err, a) {
			return true
		}
	}
	return false
}

// checkFired is the vacuity guard for stateful faults: a cabreset rule
// must reset an adaptor and a partition rule must partition a frame.
func (r *rig) checkFired() {
	o := r.o
	for _, w := range r.inj.Windows() {
		switch {
		case w.Kind == fault.CABReset && r.inj.Fired[fault.CABReset] == 0:
			o.failf("vacuous: no cabreset fired")
		case w.Kind == fault.CABReset && o.Resets == 0:
			o.failf("vacuous: cabreset fired but no adaptor recorded a reset")
		case w.Kind == fault.Partition && o.PartitionDrops == 0:
			o.failf("vacuous: partition window scheduled but no frame was partitioned")
		}
	}
}

// audit checks that no path silently gains or loses a data touch during
// recovery: each TCP flow shows its stack's Table 1 cells. A clean
// unframed stream must match exactly; faulted runs get the documented
// retransmit allowance (loose mode), and so does every framed flow, since
// concurrent flows contend for netmem and any may retransmit even on a
// clean plan. Each framed sender's local port is its ledger flow. UDP
// transfers tolerate loss by design, so per-byte stream coverage does not
// apply.
func (r *rig) audit() {
	c, o, led := &r.c, r.o, r.tb.Led
	var cfgs []ledger.AuditConfig
	if c.Proto != "udp" && c.Flows == 0 {
		cfgs = append(cfgs, ledger.AuditConfig{Flow: led.MainFlow(), Total: c.Total, Strict: c.Plan == ""})
	}
	for _, fp := range r.ports {
		cfgs = append(cfgs, ledger.AuditConfig{Flow: int(fp), Total: c.Total + flowHdrLen})
	}
	tx, rx := c.Mode.Cells()
	for _, cfg := range cfgs {
		cfg.SndHost, cfg.RcvHost = "A", "B"
		if err := led.AssertCell(tx, rx, cfg); err != nil {
			o.failf("audit: ledger flow %d: %v", cfg.Flow, err)
			if o.FlightRec == nil {
				o.FlightRec = r.tb.FlightDump()
			}
		}
	}
}

// checkConservation cross-checks the fault ledger against protocol and
// hardware counters: every injected fault must be visible in, and
// consistent with, what the stacks observed.
func (r *rig) checkConservation() {
	a, b, inj, c, o := r.a, r.b, r.inj, &r.c, r.o
	if inj.Fired[fault.Dup] > 0 && r.tb.Net.Duped == 0 {
		o.failf("conservation: dup faults fired %d but no frame was duplicated", inj.Fired[fault.Dup])
	}

	csumSeen := a.Stk.Stats.TCPCsumErrors + b.Stk.Stats.TCPCsumErrors +
		a.Stk.Stats.UDPCsumErrors + b.Stk.Stats.UDPCsumErrors
	if inj.Fired[fault.Corrupt] > 0 && csumSeen == 0 {
		o.failf("conservation: %d corruptions injected but no checksum error detected",
			inj.Fired[fault.Corrupt])
	}
	if inj.Fired[fault.RxCsum] > 0 && csumSeen == 0 {
		o.failf("conservation: %d rx-checksum faults injected but none detected",
			inj.Fired[fault.RxCsum])
	}
	if inj.Fired[fault.TxCsum] > 0 && csumSeen == 0 {
		o.failf("conservation: %d tx-checksum faults injected but none detected",
			inj.Fired[fault.TxCsum])
	}
	if inj.Fired[fault.DMAFail] > 0 && a.CAB.Stats.SDMAFails+b.CAB.Stats.SDMAFails == 0 {
		o.failf("conservation: DMA faults fired but no SDMA failure recorded")
	}
	if inj.Fired[fault.AllocFail] > 0 && a.K.AllocFailures+b.K.AllocFailures == 0 {
		o.failf("conservation: alloc faults fired but no allocation failure recorded")
	}
	if inj.Fired[fault.Netmem] > 0 &&
		a.CAB.Stats.RxRetries+b.CAB.Stats.RxRetries+
			a.CAB.Stats.RxHdrDeliveries+b.CAB.Stats.RxHdrDeliveries+
			a.CAB.Stats.ArbWaits+b.CAB.Stats.ArbWaits == 0 {
		// Under the arbiter, memory pressure surfaces as tx-admission waits
		// rather than rx-side retries, so both count as evidence.
		o.failf("conservation: netmem pressure applied but no backpressure recorded")
	}

	if c.Proto != "udp" {
		// Any delivery-disturbing fault must surface as retransmissions,
		// and with the single-copy stack those retransmissions must come
		// from outboard memory (overlay) or the fallback re-read.
		lossy := inj.Fired[fault.Drop] + inj.Fired[fault.Corrupt] +
			inj.Fired[fault.RxCsum] + inj.Fired[fault.TxCsum]
		if lossy > 0 && a.Stk.Stats.TCPRetransmits == 0 {
			o.failf("conservation: %d delivery faults but no TCP retransmission", lossy)
		}
		if c.Mode == socket.ModeSingleCopy && a.Stk.Stats.TCPRetransmits > 0 &&
			a.Drv.Stats.TxOverlays+a.Drv.Stats.TxFallbackReads == 0 {
			o.failf("conservation: %d retransmits but no overlay or fallback read",
				a.Stk.Stats.TCPRetransmits)
		}
		return
	}
	// UDP: losses are legal, silence is not. Every sent datagram is
	// either delivered or accounted for by a drop/corruption counter.
	sentDg := a.Stk.Stats.UDPOut
	rcvdDg := b.Stk.Stats.UDPIn
	accounted := int(inj.Fired[fault.Drop]) +
		b.Stk.Stats.UDPCsumErrors + b.Stk.Stats.UDPRcvFull +
		b.CAB.Stats.DropNoMem + b.CAB.Stats.DropNoBuf +
		b.Stk.Stats.IPReassTimeouts
	if rcvdDg > sentDg+int(inj.Fired[fault.Dup]) {
		o.failf("conservation: received %d datagrams, sent only %d (+%d dups)",
			rcvdDg, sentDg, inj.Fired[fault.Dup])
	}
	if rcvdDg+accounted < sentDg {
		o.failf("conservation: %d datagrams unaccounted for (sent %d, received %d, accounted %d)",
			sentDg-rcvdDg-accounted, sentDg, rcvdDg, accounted)
	}
}
