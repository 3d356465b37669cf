package core

import (
	"reflect"
	"testing"

	"repro/internal/obs/engine"
	"repro/internal/socket"
	"repro/internal/units"
)

// recorderSet is the testbed's recorder pointers, for comparing two
// moments of one testbed.
type recorderSet struct {
	tel, prof, series, led, engObs, netObs, crit any
}

func recordersOf(tb *Testbed) recorderSet {
	s := recorderSet{tb.Tel, tb.Prof, tb.Series, tb.Led, tb.EngObs, tb.NetObs, nil}
	if tb.Tel != nil {
		s.crit = tb.Tel.Crit()
	}
	return s
}

// TestRecordUnionsAndIsIdempotent: a second Record call adds what it names
// and keeps every recorder the first made, and repeating a call changes no
// pointer, the series interval included.
func TestRecordUnionsAndIsIdempotent(t *testing.T) {
	tb := NewTestbed(1)
	tb.Record(Recorders{Ledger: true, Series: 50 * units.Microsecond})
	if tb.Led == nil || tb.Series == nil || tb.Tel == nil {
		t.Fatalf("ledger %v, series %v, telemetry %v: want all on (the series implies telemetry)",
			tb.Led != nil, tb.Series != nil, tb.Tel != nil)
	}
	if tb.Prof != nil || tb.NetObs != nil || tb.EngObs != nil || tb.Tel.Crit() != nil {
		t.Fatal("Record turned on a recorder it was not asked for")
	}
	first := recordersOf(tb)

	all := Recorders{Telemetry: true, CritPath: true, Profile: true, Ledger: true, NetObs: true,
		Series: 200 * units.Microsecond, EngObs: engine.New()}
	tb.Record(all)
	union := recordersOf(tb)
	if union.tel != first.tel || union.led != first.led || union.series != first.series {
		t.Fatal("a second Record replaced a recorder the first made")
	}
	if tb.Prof == nil || tb.NetObs == nil || tb.EngObs != all.EngObs || tb.Tel.Crit() == nil {
		t.Fatal("a second Record did not add what it named")
	}
	if got := tb.Series.Snapshot().IntervalNs; got != int64(50*units.Microsecond) {
		t.Fatalf("series interval %d ns, want the first call's 50 µs", got)
	}

	tb.Record(all)
	tb.Record(Recorders{})
	if recordersOf(tb) != union {
		t.Fatal("a repeated Record changed a recorder")
	}
}

// TestEnableForwardsReturnRecordersRecordMade: each Enable method returns
// the recorder its Record call attached, and a later Enable returns the
// same one.
func TestEnableForwardsReturnRecordersRecordMade(t *testing.T) {
	tb := NewTestbed(1)
	eo := engine.New()
	for _, c := range []struct {
		name      string
		got, want func() any
	}{
		{"EnableTelemetry", func() any { return tb.EnableTelemetry() }, func() any { return tb.Tel }},
		{"EnableCritPath", func() any { return tb.EnableCritPath() }, func() any { return tb.Tel.Crit() }},
		{"EnableProfiling", func() any { return tb.EnableProfiling() }, func() any { return tb.Prof }},
		{"EnableSeries", func() any { return tb.EnableSeries(0) }, func() any { return tb.Series }},
		{"EnableNetObs", func() any { return tb.EnableNetObs() }, func() any { return tb.NetObs }},
		{"EnableLedger", func() any { return tb.EnableLedger() }, func() any { return tb.Led }},
		{"EnableEngineObs", func() any { return tb.EnableEngineObs(eo) }, func() any { return tb.EngObs }},
	} {
		got := c.got()
		if got != c.want() || reflect.ValueOf(got).IsNil() {
			t.Errorf("%s returned %v, want the testbed's recorder %v", c.name, got, c.want())
		}
		if again := c.got(); again != got {
			t.Errorf("%s: a second call returned a new recorder", c.name)
		}
	}
	if got := tb.Series.Snapshot().IntervalNs; got != int64(DefaultSeriesInterval) {
		t.Errorf("EnableSeries(0) samples every %d ns, want DefaultSeriesInterval", got)
	}
}

// TestRecordAfterAddHostPanics: a host wires itself to the recorders that
// exist when it is added, so a recorder attached later would miss it.
func TestRecordAfterAddHostPanics(t *testing.T) {
	tb := NewTestbed(1)
	tb.AddHost(HostConfig{Name: "A", Addr: addrA, Mode: socket.ModeSingleCopy, CABNode: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("Record after AddHost did not panic")
		}
	}()
	tb.Record(Recorders{Ledger: true})
}
