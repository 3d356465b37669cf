package critpath_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/socket"
	"repro/internal/ttcp"
	"repro/internal/units"
)

// The faulted transfers whose causal graphs are pinned below: a periodic
// drop of large frames, which forces go-back-N retransmissions, and a
// reorder/duplicate plan whose reordering delay outlasts the retransmission
// timeout, so that reassembly, the delayed-ACK timer and the retransmission
// timer all take part.
const (
	dropPlan    = "drop:every=13,min=1000"
	reorderPlan = "reorder:every=5,delay=300ms;dup:every=3"
)

// faultRun performs a 4 MB transfer in 64 KB writes on testbed seed 3 with
// the causal recorder on and plan injected under fault seed 1.
func faultRun(t *testing.T, mode socket.Mode, plan string) (*obs.CritRec, *core.Testbed) {
	t.Helper()
	tb := core.NewTestbed(3)
	rec := tb.EnableCritPath()
	inj := fault.New(tb.Eng, 1)
	if err := inj.AddPlan(plan); err != nil {
		t.Fatal(err)
	}
	tb.EnableFaults(inj)
	a := tb.AddHost(core.HostConfig{Name: "A", Addr: 0x0a000001, Mach: cost.Alpha400(),
		Mode: mode, CABNode: 1})
	b := tb.AddHost(core.HostConfig{Name: "B", Addr: 0x0a000002, Mach: cost.Alpha400(),
		Mode: mode, CABNode: 2})
	tb.RouteCAB(a, b)
	ttcp.Run(tb, a, b, ttcp.Params{Total: 4 * units.MB, RWSize: 64 * units.KB})
	return rec, tb
}

// causalDigest hashes every event (with its Done flag, its kind and host
// by name) and every slack edge of a recorded graph.
func causalDigest(rec *obs.CritRec) string {
	type event struct {
		Parent     int32
		Cause      obs.Cause
		Done       bool
		Kind, Host string
		Flow       int
		Off, Len   int64
		T          units.Time
	}
	h := sha256.New()
	for i, ev := range rec.Events() {
		fmt.Fprintf(h, "%d %+v\n", i+1, event{ev.Parent, ev.Cause, ev.Done,
			ev.Kind.String(), rec.Name(ev.Host), ev.Flow, ev.Off, ev.Len, ev.T})
	}
	for _, a := range rec.Alts() {
		fmt.Fprintf(h, "alt %+v\n", a)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestFaultedCausalGraph pins the full causal graph of faulted transfers,
// where the committed baselines cover only clean runs. The reorder run
// must reach every recovery edge it exists to pin.
func TestFaultedCausalGraph(t *testing.T) {
	for _, tc := range []struct {
		name, plan string
		mode       socket.Mode
		want       string
	}{
		{"drop/single_copy", dropPlan, socket.ModeSingleCopy, "e249e8fa8c7cc4b1"},
		{"drop/unmodified", dropPlan, socket.ModeUnmodified, "3b529efcb0a55f02"},
		{"reorder/single_copy", reorderPlan, socket.ModeSingleCopy, "b0d12bfeca3da150"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, _ := faultRun(t, tc.mode, tc.plan)
			if tc.plan == reorderPlan {
				seen := map[string]bool{}
				for _, ev := range rec.Events() {
					seen[ev.Kind.String()] = true
					if ev.Cause == obs.CauseDelAck {
						seen["delack"] = true
					}
				}
				for _, k := range []string{"reass_pull", "delack", "rto_fire"} {
					if !seen[k] {
						t.Errorf("no %s event: the plan no longer exercises it", k)
					}
				}
			}
			if got := causalDigest(rec); got != tc.want {
				t.Errorf("causal graph digest %s, want %s (%d events, %d slack edges)",
					got, tc.want, len(rec.Events()), len(rec.Alts()))
			}
		})
	}
}

// TestRetransmitWriterLinks: a segment's tcp_output event links to the
// writer event that enqueued its first byte, retransmissions included. On
// the drop transfer, every data tcp_output whose binding or slack parent
// is a sock_pin or sock_copy event lies inside that event's byte range.
func TestRetransmitWriterLinks(t *testing.T) {
	for _, mode := range []socket.Mode{socket.ModeSingleCopy, socket.ModeUnmodified} {
		rec, tb := faultRun(t, mode, dropPlan)
		if tb.Hosts[0].Stk.Stats.TCPRetransmits == 0 {
			t.Fatalf("mode %v: vacuous: no retransmission", mode)
		}
		ev := rec.Events()
		links := map[int32][]int32{}
		for _, a := range rec.Alts() {
			links[a.To] = append(links[a.To], a.From)
		}
		checked, bad := 0, 0
		for i, e := range ev {
			if e.Kind != obs.EvTCPOutput || e.Len == 0 {
				continue
			}
			id := int32(i + 1)
			for _, p := range append([]int32{e.Parent}, links[id]...) {
				if p == 0 {
					continue
				}
				w := ev[p-1]
				if w.Kind != obs.EvSockPin && w.Kind != obs.EvSockCopy {
					continue
				}
				checked++
				if e.Off < w.Off || e.Off >= w.Off+w.Len {
					bad++
					if bad <= 3 {
						t.Errorf("mode %v: tcp_output at stream offset %d links to %s [%d,+%d)",
							mode, e.Off, w.Kind, w.Off, w.Len)
					}
				}
			}
		}
		if checked == 0 {
			t.Fatalf("mode %v: vacuous: no tcp_output links to a writer event", mode)
		}
		if bad > 0 {
			t.Errorf("mode %v: %d of %d writer links point at bytes the segment does not carry", mode, bad, checked)
		}
	}
}

// TestReadEventOffsets: a read's copy and DMA events carry the read's
// stream range, the same one its read_done reports.
func TestReadEventOffsets(t *testing.T) {
	for _, tc := range []struct {
		mode socket.Mode
		kind obs.EvKind
	}{
		{socket.ModeUnmodified, obs.EvReadCopy},
		{socket.ModeSingleCopy, obs.EvReadDMA},
	} {
		ev := critRun(tc.mode, 42).Events()
		checked := 0
		for _, e := range ev {
			if e.Kind != obs.EvReadDone {
				continue
			}
			for p := e.Parent; p != 0; p = ev[p-1].Parent {
				r := ev[p-1]
				if r.Kind != obs.EvReadCopy && r.Kind != obs.EvReadDMA {
					break
				}
				if r.Kind == tc.kind {
					checked++
				}
				if r.Off != e.Off || r.Len != e.Len {
					t.Fatalf("%s [%d,+%d) beside read_done [%d,+%d)", r.Kind, r.Off, r.Len, e.Off, e.Len)
				}
			}
		}
		if checked == 0 {
			t.Fatalf("vacuous: no %s event precedes a read_done", tc.kind)
		}
	}
}
