package ttcp_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/cab"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/ttcp"
	"repro/internal/units"
	"repro/internal/wire"
)

// recorderSet selects which per-packet recorders a run enables.
type recorderSet struct{ ledger, trace bool }

// recorderOut is everything the ledger, the span trace and the causal
// recorder produced in one run.
type recorderOut struct {
	ledger, flight  []byte
	stats, chrome   []byte
	critEv, critAlt any
}

func enableRecorders(tb *core.Testbed, rs recorderSet) {
	if rs.ledger {
		tb.EnableLedger()
	}
	if rs.trace {
		tb.EnableCritPath() // implies telemetry
	}
}

func collect(t *testing.T, tb *core.Testbed) recorderOut {
	t.Helper()
	var out recorderOut
	if tb.Led != nil {
		out.ledger, out.flight = tb.Led.JSON(), tb.Led.FlightDump()
	}
	if tb.Tel != nil {
		st, err := json.Marshal(tb.Tel.Trace().Stats())
		if err != nil {
			t.Fatal(err)
		}
		out.stats, out.chrome = st, withoutDesc(t, tb.Tel.Chrome())
		out.critEv, out.critAlt = tb.Tel.Crit().Events(), tb.Tel.Crit().Alts()
	}
	return out
}

// withoutDesc drops the sosend descriptor id from every Chrome event's
// args: the ledger allocates descriptor ids, so the trace shows them only
// when the ledger runs. Everything else in the trace must not move.
func withoutDesc(t *testing.T, chrome []byte) []byte {
	t.Helper()
	var f struct {
		Events []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &f); err != nil {
		t.Fatal(err)
	}
	for _, ev := range f.Events {
		if args, ok := ev["args"].(map[string]any); ok {
			delete(args, "desc")
		}
	}
	b, err := json.Marshal(f.Events)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	rAddrA = wire.Addr(0x0a000001)
	rAddrB = wire.Addr(0x0a000002)
)

// noSpanEnds pins the legacy-device asymmetry: a packet leaving the CAB
// path (the driver-entry shim, ethdev) keeps its ledger identity but its
// span never ends, so the trace completes no span.
func noSpanEnds(t *testing.T, tb *core.Testbed) {
	if n := tb.Tel.Trace().Stats().Spans; n != 0 {
		t.Errorf("%d spans ended off the CAB path, want 0", n)
	}
}

// copyOutUntraced pins the WCAB copy-out asymmetry: the receiver's SDMA
// engine records causal events for every transfer except the copy-outs
// that read large packets' bodies out of network memory (one per large
// packet in these transfers; the socket's read_dma event covers them).
func copyOutUntraced(t *testing.T, tb *core.Testbed) {
	b := tb.Hosts[1]
	done := 0
	rec := tb.Tel.Crit()
	for _, ev := range rec.Events() {
		if rec.Name(ev.Host) == b.Cfg.Name && ev.Kind == obs.EvSDMADone {
			done++
		}
	}
	if b.Drv.Stats.RxLarge == 0 {
		t.Fatal("vacuous: no large packet was read out of network memory")
	}
	if want := b.CAB.Stats.SDMAOps - b.Drv.Stats.RxLarge; done != want {
		t.Errorf("receiver recorded %d sdma_done events, want %d (SDMA ops less copy-outs)", done, want)
	}
}

// recorderScenarios are the data paths whose recorders must not see each
// other: the single-copy and unmodified CAB paths, the legacy device
// reached through the driver-entry shim, loopback, and receive-side
// netmem holds with retries (the WCAB copy-out path). pin, when set,
// checks the run with every recorder on.
var recorderScenarios = []struct {
	name string
	run  func(t *testing.T, rs recorderSet) *core.Testbed
	pin  func(t *testing.T, tb *core.Testbed)
}{
	{"single_copy", func(t *testing.T, rs recorderSet) *core.Testbed {
		return cabPair(t, rs, socket.ModeSingleCopy)
	}, copyOutUntraced},
	{"unmodified", func(t *testing.T, rs recorderSet) *core.Testbed {
		return cabPair(t, rs, socket.ModeUnmodified)
	}, nil},
	{"mixed_devices", func(t *testing.T, rs recorderSet) *core.Testbed {
		tb := core.NewTestbed(3)
		enableRecorders(tb, rs)
		a := tb.AddHost(core.HostConfig{Name: "A", Addr: rAddrA, Mode: socket.ModeSingleCopy, CABNode: 1, EthNode: 11})
		b := tb.AddHost(core.HostConfig{Name: "B", Addr: rAddrB, Mode: socket.ModeSingleCopy, CABNode: 2, EthNode: 12})
		tb.RouteEth(a, b)
		ttcp.Run(tb, a, b, ttcp.Params{Total: 256 * units.KB, RWSize: 32 * units.KB})
		if a.Eth.Converted == 0 {
			t.Fatal("vacuous: no descriptor chain crossed the driver-entry shim")
		}
		return tb
	}, noSpanEnds},
	{"loopback", func(t *testing.T, rs recorderSet) *core.Testbed {
		tb := core.NewTestbed(4)
		enableRecorders(tb, rs)
		a := tb.AddHost(core.HostConfig{Name: "A", Addr: rAddrA, Mode: socket.ModeSingleCopy, CABNode: 1, Loopback: true})
		ttcp.Run(tb, a, a, ttcp.Params{Total: 256 * units.KB, RWSize: 32 * units.KB})
		return tb
	}, noSpanEnds}, // the single-copy stack's descriptor chains cross the shim
	{"rx_hold_retry", rxHoldRun, copyOutUntraced},
}

func cabPair(t *testing.T, rs recorderSet, mode socket.Mode) *core.Testbed {
	t.Helper()
	tb := core.NewTestbed(2)
	enableRecorders(tb, rs)
	a := tb.AddHost(core.HostConfig{Name: "A", Addr: rAddrA, Mode: mode, CABNode: 1})
	b := tb.AddHost(core.HostConfig{Name: "B", Addr: rAddrB, Mode: mode, CABNode: 2})
	tb.RouteCAB(a, b)
	ttcp.Run(tb, a, b, ttcp.Params{Total: 512 * units.KB, RWSize: 64 * units.KB})
	return tb
}

// rxHoldRun starves the receiver's network memory and reads slowly, so
// arriving frames are held and retried and large packets are read out of
// network memory by the copy-out SDMA.
func rxHoldRun(t *testing.T, rs recorderSet) *core.Testbed {
	tb := core.NewTestbed(50)
	enableRecorders(tb, rs)
	small := cab.DefaultConfig()
	small.MemSize = 256 * units.KB
	a := tb.AddHost(core.HostConfig{Name: "A", Addr: rAddrA, Mode: socket.ModeSingleCopy, CABNode: 1})
	b := tb.AddHost(core.HostConfig{Name: "B", Addr: rAddrB, Mode: socket.ModeSingleCopy, CABNode: 2,
		CABConfig: &small})
	tb.RouteCAB(a, b)
	total, ws := units.Size(1*units.MB), units.Size(64*units.KB)
	lis := b.Stk.Listen(5001)
	rt := b.NewUserTask("rcv", 0)
	tb.Eng.Go("receiver", func(p *sim.Proc) {
		s := b.Accept(p, rt, lis)
		buf := rt.Space.Alloc(ws, 8)
		for {
			if _, err := s.Read(p, buf); err != nil {
				return
			}
			p.Sleep(5 * units.Millisecond)
		}
	})
	st := a.NewUserTask("snd", 0)
	tb.Eng.Go("sender", func(p *sim.Proc) {
		s, err := a.Dial(p, st, rAddrB, 5001)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		buf := st.Space.Alloc(ws, 8)
		for sent := units.Size(0); sent < total; sent += ws {
			if err := s.WriteAll(p, buf); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		s.Close(p)
	})
	tb.Eng.Run()
	tb.Eng.KillAll()
	if b.CAB.Stats.RxRetries == 0 {
		t.Fatal("vacuous: no frame was ever held and retried")
	}
	return tb
}

// TestRecordersIndependent pins that the per-packet recorders share one
// handle without seeing each other: the ledger records the same touches
// (and the same unattributed totals) whether or not the trace and the
// causal recorder run beside it, and the trace and causal recorder emit
// the same spans and events whether or not the ledger runs.
func TestRecordersIndependent(t *testing.T) {
	for _, sc := range recorderScenarios {
		t.Run(sc.name, func(t *testing.T) {
			led := collect(t, sc.run(t, recorderSet{ledger: true}))
			trc := collect(t, sc.run(t, recorderSet{trace: true}))
			tb := sc.run(t, recorderSet{ledger: true, trace: true})
			all := collect(t, tb)
			if sc.pin != nil {
				sc.pin(t, tb)
			}
			if len(led.ledger) == 0 || len(trc.chrome) == 0 {
				t.Fatal("vacuous: a recorder produced nothing")
			}
			if !bytes.Equal(led.ledger, all.ledger) {
				t.Error("ledger JSON changes when the trace and causal recorder run")
			}
			if !bytes.Equal(led.flight, all.flight) {
				t.Error("ledger flight dump changes when the trace and causal recorder run")
			}
			if !bytes.Equal(trc.stats, all.stats) {
				t.Errorf("span stats change when the ledger runs:\n%s\n%s", trc.stats, all.stats)
			}
			if !bytes.Equal(trc.chrome, all.chrome) {
				t.Error("Chrome trace changes when the ledger runs")
			}
			if !reflect.DeepEqual(trc.critEv, all.critEv) || !reflect.DeepEqual(trc.critAlt, all.critAlt) {
				t.Error("critical-path events change when the ledger runs")
			}
		})
	}
}
