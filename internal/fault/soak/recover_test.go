package soak

import (
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/socket"
	"repro/internal/tcpip"
	"repro/internal/units"
)

// TestRecoverMatrix runs the full fault-domain recovery suite: every flow
// in every case must complete byte-exact or end in one of the case's
// allowed errors, with zero leaks and conserved fault accounting.
func TestRecoverMatrix(t *testing.T) {
	for _, c := range RecoverMatrix() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			o := RunRecover(c)
			for _, f := range o.Failures {
				t.Errorf("%s", f)
			}
			if t.Failed() {
				t.Logf("fault report:\n%s", o.Report)
				for i, fl := range o.Flows {
					t.Logf("flow %d: delivered=%v snd=%v rcv=%v complete=%v",
						i, fl.Delivered, fl.SndErr, fl.RcvErr, fl.Complete)
				}
				if o.FlightRec != nil {
					t.Logf("flight recorder:\n%s", o.FlightRec)
				}
			}
		})
	}
}

// TestRecoverDeterminism replays a partition case and the reset cases
// (one side, both sides, and four flows under the arbiter, where a reset
// frees many flows' pages at once) and demands identical flow fates,
// timing, fault reports and failures — recovery is part of the
// simulation, not a race against it.
func TestRecoverDeterminism(t *testing.T) {
	for _, name := range []string{"partition-steady", "cabreset-sender", "cabreset-both", "cabreset-multiflow"} {
		var pick RecoverCase
		for _, c := range RecoverMatrix() {
			if c.Name == name {
				pick = c
			}
		}
		if pick.Name == "" {
			t.Fatalf("case %s missing from matrix", name)
		}
		o1 := RunRecover(pick)
		o2 := RunRecover(pick)
		if o1.FirstGoodputAt != o2.FirstGoodputAt || o1.RecoveryTime != o2.RecoveryTime ||
			o1.EndTime != o2.EndTime || o1.Delivered != o2.Delivered ||
			o1.Resets != o2.Resets || o1.PartitionDrops != o2.PartitionDrops {
			t.Errorf("%s: replay diverged: %+v vs %+v", name, o1, o2)
		}
		if o1.Report != o2.Report {
			t.Errorf("%s: fault report diverged: %q vs %q", name, o1.Report, o2.Report)
		}
		if !slices.Equal(o1.Failures, o2.Failures) {
			t.Errorf("%s: failures diverged: %q vs %q", name, o1.Failures, o2.Failures)
		}
		if len(o1.Flows) != len(o2.Flows) {
			t.Fatalf("%s: %d flows vs %d", name, len(o1.Flows), len(o2.Flows))
		}
		for i := range o1.Flows {
			if o1.Flows[i] != o2.Flows[i] {
				t.Errorf("%s: flow %d diverged: %+v vs %+v", name, i, o1.Flows[i], o2.Flows[i])
			}
		}
	}
}

// TestRecoverPartitionHealTiming pins the causal ordering a healed
// partition must show: no goodput inside the window, first goodput after
// the heal, bounded by the RTO backoff in effect when the link died.
func TestRecoverPartitionHealTiming(t *testing.T) {
	o := RunRecover(RecoverCase{
		Name: "timing", Plan: "partition:at=10ms,dur=10ms", Seed: 99,
		Mode: socket.ModeSingleCopy, WantPartition: true,
	})
	for _, f := range o.Failures {
		t.Errorf("%s", f)
	}
	if o.FaultAt != 10*units.Millisecond || o.HealAt != 20*units.Millisecond {
		t.Fatalf("window = [%v, %v], want [10ms, 20ms]", o.FaultAt, o.HealAt)
	}
	if o.FirstGoodputAt < o.HealAt {
		t.Fatalf("goodput at %v, inside the partition window ending %v", o.FirstGoodputAt, o.HealAt)
	}
	// The slowest legal resume is one maximal RTO backoff past the heal.
	if o.RecoveryTime > 2*units.Second {
		t.Fatalf("recovery took %v, beyond the 2s RTO ceiling", o.RecoveryTime)
	}
}

// TestRecoverPeerDeathSurfacesLiveness pins the liveness contract: with an
// unbounded partition, the stalled writer must die with its user-timeout
// error and the idle reader with a keepalive verdict — no wedge, no
// watchdog, within the configured bounds.
func TestRecoverPeerDeathSurfacesLiveness(t *testing.T) {
	o := RunRecover(RecoverCase{
		Name: "peerdeath", Plan: "partition:at=10ms", Seed: 77,
		Mode: socket.ModeSingleCopy, KeepAlive: true, UserTimeout: 2 * units.Second,
		AllowSnd:      []error{tcpip.ErrTimeout},
		AllowRcv:      []error{tcpip.ErrTimeout, tcpip.ErrConnReset},
		WantPartition: true,
	})
	for _, f := range o.Failures {
		t.Errorf("%s", f)
	}
	fl := o.Flows[0]
	if fl.Complete {
		t.Fatalf("flow completed across a dead link")
	}
	if fl.SndErr == nil || fl.RcvErr == nil {
		t.Fatalf("both ends must surface an error: snd=%v rcv=%v", fl.SndErr, fl.RcvErr)
	}
	// The writer's user-timeout clock starts at the stall; 2s timeout plus
	// scheduling slack must resolve well inside the 5s watchdog window.
	if o.EndTime > o.FaultAt+4*units.Second {
		t.Fatalf("liveness verdicts took until %v for a fault at %v", o.EndTime, o.FaultAt)
	}
	if o.B.Stk.Stats.TCPKaProbes == 0 {
		t.Fatalf("reader reached a verdict without sending keepalive probes")
	}
	if o.A.Stk.Stats.TCPLivenessDrops+o.B.Stk.Stats.TCPLivenessDrops == 0 {
		t.Fatalf("no liveness drop recorded")
	}
}

// TestRecoverCabresetLeakFree pins the reset reclamation contract directly:
// after a mid-transfer firmware reset on the sender's adaptor, every netmem
// page is back in the free pool and no user page stays pinned, while the
// victim flow ends in a typed error.
func TestRecoverCabresetLeakFree(t *testing.T) {
	o := RunRecover(RecoverCase{
		Name: "reset-leak", Plan: "cabreset:at=8ms,node=1", Seed: 88,
		Mode: socket.ModeSingleCopy, KeepAlive: true,
		AllowSnd:   []error{tcpip.ErrDeviceReset, tcpip.ErrConnReset, tcpip.ErrConnTimeout, tcpip.ErrTimeout},
		AllowRcv:   []error{tcpip.ErrDeviceReset, tcpip.ErrConnReset, tcpip.ErrTimeout},
		WantResets: true,
	})
	for _, f := range o.Failures {
		t.Errorf("%s", f)
	}
	if o.A.CAB.Stats.Resets != 1 {
		t.Fatalf("sender adaptor saw %d resets, want 1", o.A.CAB.Stats.Resets)
	}
	if o.B.CAB.Stats.Resets != 0 {
		t.Fatalf("receiver adaptor reset too (%d), plan targeted node 1", o.B.CAB.Stats.Resets)
	}
	if free, tot := o.A.CAB.FreePages(), o.A.CAB.TotalPages(); free != tot {
		t.Fatalf("reset adaptor leaked %d netmem pages", tot-free)
	}
}

// TestRecoverWatchdogFlightDumpHasFaultCounters wedges a run on purpose (a
// permanent partition with no liveness enabled) and checks the watchdog's
// flight-recorder dump carries the per-kind injector counters alongside the
// ledger and trace sections — the triage bundle for a stuck soak.
func TestRecoverWatchdogFlightDumpHasFaultCounters(t *testing.T) {
	o := RunRecover(RecoverCase{
		Name: "wedge", Plan: "partition:at=5ms", Seed: 66,
		Mode: socket.ModeSingleCopy, // no KeepAlive, no UserTimeout: must wedge
	})
	if len(o.Failures) == 0 {
		t.Fatalf("permanent partition without liveness should wedge")
	}
	if o.FlightRec == nil {
		t.Fatalf("wedged run produced no flight-recorder dump")
	}
	var dump struct {
		Ledger json.RawMessage  `json:"ledger"`
		Trace  json.RawMessage  `json:"trace"`
		Faults map[string]int64 `json:"faults"`
	}
	if err := json.Unmarshal(o.FlightRec, &dump); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v\n%s", err, o.FlightRec)
	}
	if dump.Faults == nil {
		t.Fatalf("flight dump has no fault-counter section:\n%s", o.FlightRec)
	}
	if dump.Faults[fault.Partition.String()] == 0 {
		t.Fatalf("fault section missing partition count: %v", dump.Faults)
	}
	if len(dump.Ledger) == 0 || len(dump.Trace) == 0 {
		t.Fatalf("flight dump missing ledger or trace section")
	}
}
