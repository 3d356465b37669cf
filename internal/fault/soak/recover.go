package soak

import (
	"errors"
	"fmt"

	"repro/internal/cabdrv"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/socket"
	"repro/internal/tcpip"
	"repro/internal/units"
)

// Keepalive tuning for recovery cases: aggressive enough that a dead peer
// is declared within ~1.5s of virtual time, comfortably inside the 5s
// progress watchdog.
const (
	kaIdle  = 500 * units.Millisecond
	kaIntvl = 250 * units.Millisecond
	kaCount = 3
)

// RecoverCase is one fault-domain recovery scenario: a transfer under a
// stateful fault plan (partition window, adaptor reset, peer death), with
// the set of clean outcomes each flow is allowed to reach.
type RecoverCase struct {
	Name string
	// Plan is the fault plan (must parse; see fault.ParsePlan).
	Plan string
	Seed int64
	Mode socket.Mode
	// Flows is the concurrent connection count (0/1: one flow). Total is
	// per flow; zero picks 1 MB (256 KB when Flows > 1) with 64 KB I/O.
	Flows         int
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
	// WantResets / WantPartition are vacuity guards: the scheduled fault
	// must actually have fired.
	WantResets    bool
	WantPartition bool
}

// RecoverFlow is one flow's fate.
type RecoverFlow struct {
	Delivered      units.Size
	SndErr, RcvErr error
	// Complete: the full total arrived byte-exact and both ends finished
	// cleanly.
	Complete bool

	sndOp string // the sender's failed step: "dial", "header" or "write at <offset>"
}

// RecoverOutcome is a finished recovery case.
type RecoverOutcome struct {
	Case     RecoverCase
	Flows    []RecoverFlow
	Failures []string
	Report   string
	// FlightRec is the flight-recorder dump, taken only when the watchdog
	// declared the run wedged.
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
	// EndTime is the virtual time the workload finished.
	EndTime units.Time

	Delivered      units.Size
	Resets         int
	PartitionDrops int64

	A, B *core.Host
}

func (o *RecoverOutcome) failf(format string, args ...any) {
	o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
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

// RunRecover executes one fault-domain recovery case: Flows transfers run
// under the plan; every flow must end byte-exact or in an allowed error,
// with zero netmem/pin leaks and conserved fault counters afterwards.
func RunRecover(c RecoverCase) RecoverOutcome {
	if c.Flows < 1 {
		c.Flows = 1
	}
	if c.Total == 0 {
		if c.Flows > 1 {
			c.Total = 256 * units.KB
		} else {
			c.Total = 1 * units.MB
		}
	}
	if c.RWSize == 0 {
		c.RWSize = 64 * units.KB
	}
	o := RecoverOutcome{Case: c}
	r, err := newRig("recover", c.Seed, c.Plan, c.Mode, c.Arbiter, nil)
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
			if o.HealAt < w.From {
				o.HealAt = w.From
			}
		}
	}

	w := &flows{n: c.Flows, total: c.Total, rw: c.RWSize,
		keepAlive: c.KeepAlive, userTimeout: c.UserTimeout, healAt: o.HealAt, failf: o.failf}
	w.start(r)
	flightRec := r.run(o.failf)
	o.Flows = w.fates
	o.EndTime = w.endTime
	o.Delivered = r.got
	o.Report = r.inj.Report()
	o.FirstGoodputAt = w.firstGoodput
	if w.firstGoodput > o.HealAt {
		o.RecoveryTime = w.firstGoodput - o.HealAt
	}
	o.Resets = r.a.CAB.Stats.Resets + r.b.CAB.Stats.Resets
	o.PartitionDrops = r.inj.Fired[fault.Partition]

	if flightRec != nil {
		o.FlightRec = flightRec
		return o
	}

	// Invariant: every flow either completed byte-exact or ended in an
	// allowed, documented error.
	for f := range o.Flows {
		fl := &o.Flows[f]
		if fl.SndErr == nil && fl.RcvErr == nil {
			if fl.Delivered != c.Total {
				o.failf("flow %d: clean end but delivered %v of %v", f, fl.Delivered, c.Total)
				continue
			}
			fl.Complete = true
			continue
		}
		if fl.SndErr != nil && !errAllowed(fl.SndErr, c.AllowSnd) {
			o.failf("flow %d: sender error %q not in the allowed set", f, fl.SndErr)
		}
		if fl.RcvErr != nil && !errAllowed(fl.RcvErr, c.AllowRcv) {
			o.failf("flow %d: reader error %q not in the allowed set", f, fl.RcvErr)
		}
	}

	// Invariant: zero leaks, even though a reset wiped descriptors
	// mid-flight; and the wire conserves frames, partitioned ones counted
	// as drops of the partition window.
	r.checkLeaks(o.failf)
	r.checkWire(o.failf)
	if c.WantResets {
		if r.inj.Fired[fault.CABReset] == 0 {
			o.failf("vacuous: no cabreset fired")
		}
		if o.Resets == 0 {
			o.failf("vacuous: cabreset fired but no adaptor recorded a reset")
		}
	}
	if c.WantPartition && o.PartitionDrops == 0 {
		o.failf("vacuous: partition window scheduled but no frame was partitioned")
	}
	return o
}

// RecoverMatrix is the fault-domain recovery suite: link partitions across
// connection phases and directions, adaptor resets on each side and both,
// peer death, and combinations with per-packet plans. Cases without
// AllowSnd/AllowRcv must complete every flow byte-exact.
func RecoverMatrix() []RecoverCase {
	sc := socket.ModeSingleCopy
	um := socket.ModeUnmodified
	resetSnd := []error{tcpip.ErrDeviceReset, tcpip.ErrConnReset, tcpip.ErrConnTimeout, tcpip.ErrTimeout, cabdrv.ErrReset}
	resetRcv := []error{tcpip.ErrDeviceReset, tcpip.ErrConnReset, tcpip.ErrTimeout, cabdrv.ErrReset}
	deathSnd := []error{tcpip.ErrTimeout, tcpip.ErrConnTimeout}
	deathRcv := []error{tcpip.ErrTimeout, tcpip.ErrConnReset}
	return []RecoverCase{
		// Link partitions: every flow must heal and complete byte-exact.
		{Name: "partition-slowstart", Plan: "partition:at=500us,dur=5ms", Seed: 41, Mode: sc, WantPartition: true},
		{Name: "partition-steady", Plan: "partition:at=10ms,dur=10ms", Seed: 42, Mode: sc, WantPartition: true},
		{Name: "partition-long", Plan: "partition:at=5ms,dur=300ms", Seed: 43, Mode: sc, WantPartition: true},
		{Name: "partition-data-dir", Plan: "partition:at=5ms,dur=20ms,src=1,dst=2", Seed: 44, Mode: sc, WantPartition: true},
		{Name: "partition-ack-dir", Plan: "partition:at=5ms,dur=20ms,src=2,dst=1", Seed: 45, Mode: sc, WantPartition: true},
		{Name: "partition-drop-combo", Plan: "partition:at=6ms,dur=15ms;drop:every=13,min=200", Seed: 46, Mode: sc, WantPartition: true},
		{Name: "partition-corrupt-combo", Plan: "partition:at=6ms,dur=15ms;corrupt:every=11,min=200", Seed: 47, Mode: sc, WantPartition: true},
		{Name: "partition-unmod", Plan: "partition:at=5ms,dur=20ms", Seed: 48, Mode: um, WantPartition: true},

		// Adaptor resets: flows with outboard state die with a clean typed
		// error; flows without it must recover via retransmission.
		{Name: "cabreset-sender", Plan: "cabreset:at=8ms,node=1", Seed: 51, Mode: sc, KeepAlive: true,
			AllowSnd: resetSnd, AllowRcv: resetRcv, WantResets: true},
		{Name: "cabreset-receiver", Plan: "cabreset:at=8ms,node=2", Seed: 52, Mode: sc, KeepAlive: true,
			AllowSnd: resetSnd, AllowRcv: resetRcv, WantResets: true},
		{Name: "cabreset-both", Plan: "cabreset:at=8ms", Seed: 53, Mode: sc, KeepAlive: true,
			AllowSnd: resetSnd, AllowRcv: resetRcv, WantResets: true},
		{Name: "cabreset-multiflow", Plan: "cabreset:at=6ms,node=1", Seed: 54, Mode: sc, KeepAlive: true,
			Flows: 4, Arbiter: true, AllowSnd: resetSnd, AllowRcv: resetRcv, WantResets: true},
		// The paper's fault-domain contrast: the unmodified stack keeps all
		// transport state in host memory, so a firmware reset loses nothing
		// the kernel cannot retransmit — every flow completes byte-exact.
		{Name: "cabreset-unmod", Plan: "cabreset:at=8ms", Seed: 55, Mode: um, WantResets: true},
		{Name: "cabreset-drop-combo", Plan: "cabreset:at=8ms,node=1;drop:every=17,min=200", Seed: 56, Mode: sc,
			KeepAlive: true, AllowSnd: resetSnd, AllowRcv: resetRcv, WantResets: true},

		// Peer death: an unbounded partition. Liveness (keepalive on the
		// idle reader, user-timeout on the stalled writer) must surface a
		// clean typed error within its bound on both ends.
		{Name: "peerdeath-steady", Plan: "partition:at=10ms", Seed: 57, Mode: sc, KeepAlive: true,
			UserTimeout: 2 * units.Second, AllowSnd: deathSnd, AllowRcv: deathRcv, WantPartition: true},
		{Name: "peerdeath-slowstart", Plan: "partition:at=1ms", Seed: 58, Mode: sc, KeepAlive: true,
			UserTimeout: 2 * units.Second, AllowSnd: deathSnd, AllowRcv: deathRcv, WantPartition: true},
	}
}
