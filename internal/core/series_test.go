package core

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/units"
)

// monitorLog folds every engine Monitor call, in order, into a hash.
type monitorLog struct {
	h     uint64
	calls int
}

func (m *monitorLog) add(op byte, kind sim.Kind, pending int) {
	f := fnv.New64a()
	var b [18]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(m.h >> (8 * i))
		b[8+i] = byte(uint64(pending) >> (8 * i))
	}
	b[16], b[17] = op, byte(kind)
	f.Write(b[:])
	m.h = f.Sum64()
	m.calls++
}

func (m *monitorLog) Scheduled(kind sim.Kind, pending int)  { m.add('s', kind, pending) }
func (m *monitorLog) Dispatched(kind sim.Kind, pending int) { m.add('d', kind, pending) }

// procSeries is the sampler as the process it used to be, the oracle for
// EnableSeries's continuation.
func procSeries(tb *Testbed, interval units.Time) {
	tb.EnableTelemetry()
	tb.Series = obs.NewSeriesSet(interval, obs.DefaultSeriesCapacity)
	tb.Series.SetLatencySource(tb.Tel.Trace().Latency())
	tb.Eng.Go("series-sampler", func(p *sim.Proc) {
		for !tb.seriesStop {
			p.Sleep(interval)
			tb.Series.Sample(p.Now())
		}
	})
}

type seriesRun struct {
	series []byte
	end    units.Time
	mon    monitorLog
	got    []byte
}

func runSeries(t *testing.T, enable func(*Testbed, units.Time)) seriesRun {
	var r seriesRun
	tb := NewTestbed(1)
	tb.Eng.SetMonitor(&r.mon)
	enable(tb, 50*units.Microsecond)
	a := tb.AddHost(HostConfig{Name: "A", Addr: addrA, Mode: socket.ModeSingleCopy, CABNode: 1})
	b := tb.AddHost(HostConfig{Name: "B", Addr: addrB, Mode: socket.ModeSingleCopy, CABNode: 2})
	tb.RouteCAB(a, b)
	// Stop the sampler mid-transfer; it takes one last row at its next tick.
	tb.Eng.Go("stopper", func(p *sim.Proc) {
		p.Sleep(30*units.Millisecond + 7*units.Microsecond)
		tb.StopSeries()
	})
	r.got = transfer(t, tb, a, b, 2*units.MB, 64*units.KB)
	r.end = tb.Eng.Now()
	r.series = tb.Series.Snapshot().JSON()
	return r
}

// TestSeriesSamplerMatchesProc: the sampler continuation is the process
// loop it replaced, event for event. Every Monitor call (kind and pending
// count, in order), the end time, the delivered bytes and the series —
// its last row taken at the first tick after StopSeries — are the same.
func TestSeriesSamplerMatchesProc(t *testing.T) {
	want := runSeries(t, procSeries)
	got := runSeries(t, func(tb *Testbed, iv units.Time) { tb.EnableSeries(iv) })

	if units.Size(len(want.got)) != 2*units.MB || !bytes.Equal(got.got, want.got) {
		t.Fatalf("delivered %d bytes (oracle %d), or different ones", len(got.got), len(want.got))
	}
	if got.mon != want.mon || got.end != want.end {
		t.Fatalf("engine schedule differs: %d monitor calls (hash %x), end %v; process sampler %d (%x), end %v",
			got.mon.calls, got.mon.h, got.end, want.mon.calls, want.mon.h, want.end)
	}
	if !bytes.Equal(got.series, want.series) {
		t.Fatal("series snapshot differs from the process sampler's")
	}
	var snap obs.SeriesSnapshot
	if err := json.Unmarshal(got.series, &snap); err != nil {
		t.Fatal(err)
	}
	rows := snap.Hosts[0].Samples
	if last := rows[len(rows)-1].TNs; last != int64(30*units.Millisecond+50*units.Microsecond) {
		t.Fatalf("last row at %d ns, want the first tick after the stop (30.05 ms)", last)
	}
}
