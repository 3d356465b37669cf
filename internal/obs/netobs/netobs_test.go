package netobs

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/units"
)

// clock is a settable virtual clock for tests.
type clock struct{ t units.Time }

func (c *clock) now() units.Time { return c.t }

func TestNetObsNilSafety(t *testing.T) {
	var r *Recorder
	f := r.Flow("h", 1, 10, 20)
	if f != nil {
		t.Fatalf("nil recorder Flow() = %v, want nil", f)
	}
	w := r.Wire("hippi", 0)
	if w != nil {
		t.Fatalf("nil recorder Wire() = %v, want nil", w)
	}
	if d := r.Snapshot(); d != nil {
		t.Fatalf("nil recorder Snapshot() = %v, want nil", d)
	}
	if pm := r.Analyze(nil, Options{}); pm != nil {
		t.Fatalf("nil recorder Analyze() = %v, want nil", pm)
	}
	if b := r.Chrome(); b != nil {
		t.Fatalf("nil recorder Chrome() = %v, want nil", b)
	}
	// All hooks on the nil recorders must be harmless no-ops.
	f.Note(FlowState{Cwnd: 1})
	f.Rtx(RtxRTO)
	w.Tx(1, 2, 10, 100, 0, 0, units.Microsecond)
	w.Rx(2, 100, 0, 0, units.Microsecond)
	w.ReadDrops(func() Drops { return Drops{Inj: 1} })
}

// TestNetObsDisabledHooksZeroAlloc pins the nil-hook discipline: a disabled
// recorder's hot-path hooks must not allocate (they run per segment and per
// frame when instrumented code is compiled in but netobs is off).
func TestNetObsDisabledHooksZeroAlloc(t *testing.T) {
	var f *FlowRec
	var w *WireRec
	st := FlowState{Cwnd: 65536, SrttNs: 1000}
	if n := testing.AllocsPerRun(100, func() {
		f.Note(st)
		f.Rtx(RtxFast)
	}); n != 0 {
		t.Fatalf("nil FlowRec hooks allocate %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		w.Tx(1, 2, 10, 4096, 0, 0, units.Microsecond)
		w.Rx(2, 4096, 0, 0, units.Microsecond)
	}); n != 0 {
		t.Fatalf("nil WireRec hooks allocate %.1f/op, want 0", n)
	}
}

func TestNetObsOnChangeSampling(t *testing.T) {
	var c clock
	r := New(c.now)
	f := r.Flow("h", 1, 10, 20)

	st := FlowState{Cwnd: 1000, SndWnd: 500}
	f.Note(st)
	f.Note(st) // identical: deduped
	c.t = 5 * units.Microsecond
	f.Note(st) // still identical, even at a later time
	if f.samples.Len() != 1 {
		t.Fatalf("unchanged state resampled: %d samples, want 1", f.samples.Len())
	}

	// Two changes at the same instant coalesce into the final state.
	st.Cwnd = 2000
	f.Note(st)
	st.Cwnd = 3000
	f.Note(st)
	if f.samples.Len() != 2 {
		t.Fatalf("same-instant updates did not coalesce: %d samples, want 2", f.samples.Len())
	}
	if got := *f.samples.At(1); got.TNs != int64(c.t) || got.Cwnd != 3000 {
		t.Fatalf("coalesced sample = %+v, want t=%d cwnd=3000", got, c.t)
	}

	// A change at a later instant appends.
	c.t = 9 * units.Microsecond
	st.Flight = 42
	f.Note(st)
	if f.samples.Len() != 3 || f.samples.At(2).Flight != 42 {
		t.Fatalf("later change not appended: %+v", f.samples.Slice())
	}
}

func TestNetObsSampleCapCountsDrops(t *testing.T) {
	var c clock
	r := New(c.now)
	f := r.Flow("h", 1, 10, 20)
	for i := 0; i < maxFlowSamples+10; i++ {
		c.t = units.Time(i+1) * units.Microsecond
		f.Note(FlowState{Cwnd: int64(i + 1)})
	}
	if f.samples.Len() != maxFlowSamples {
		t.Fatalf("%d samples, want cap %d", f.samples.Len(), maxFlowSamples)
	}
	if f.samples.Dropped() != 10 {
		t.Fatalf("dropped=%d, want 10 (overflow must be counted, never silent)", f.samples.Dropped())
	}
	if d := r.Snapshot(); d.Flows[0].DroppedSamples != 10 {
		t.Fatalf("snapshot dropped_samples=%d, want 10", d.Flows[0].DroppedSamples)
	}
}

func TestNetObsAccBusy(t *testing.T) {
	w := units.Millisecond
	// An interval spanning three windows: 0.5ms in #0, full #1, 0.25ms in #2.
	busy := accBusy(nil, w, w/2, 2*w+w/4)
	want := []units.Time{w / 2, w, w / 4}
	if len(busy) != len(want) {
		t.Fatalf("busy windows = %v, want %v", busy, want)
	}
	for i := range want {
		if busy[i] != want[i] {
			t.Fatalf("window %d busy = %v, want %v", i, busy[i], want[i])
		}
	}
	// A second interval inside window 1 accumulates on top (perMille
	// clamps at 1000‰; accBusy itself just sums).
	busy = accBusy(busy, w, w, w+w/4)
	if busy[1] != w+w/4 {
		t.Fatalf("window 1 busy = %v after overlap, want %v", busy[1], w+w/4)
	}
	// A later interval skips windows: the gap stays zero.
	busy = accBusy(busy, w, 4*w+w/2, 5*w)
	if len(busy) != 5 || busy[3] != 0 || busy[4] != w/2 {
		t.Fatalf("gapped busy = %v, want zeros through window 3 and %v in 4", busy, w/2)
	}
}

func TestNetObsBusyPerMille(t *testing.T) {
	w := units.Millisecond
	busy := accBusy(nil, w, 0, w/4) // 25% of window 0
	pm := perMille(busy, w)
	if len(pm) != 1 || pm[0] != 250 {
		t.Fatalf("perMille = %v, want [250]", pm)
	}
	if got := busyOver(busy, w, 0); got != 250 {
		t.Fatalf("busyOver = %d, want 250", got)
	}
	// Cutoff past the last active window: no data.
	if got := busyOver(busy, w, 2*w); got != 0 {
		t.Fatalf("busyOver past end = %d, want 0", got)
	}
}

func TestNetObsDigestDeterminism(t *testing.T) {
	mk := func(cwnds ...int64) *FlowRec {
		var c clock
		r := New(c.now)
		f := r.Flow("h", 1, 10, 20)
		for i, cw := range cwnds {
			c.t = units.Time(i+1) * units.Microsecond
			f.Note(FlowState{Cwnd: cw})
		}
		return f
	}
	a, b := mk(1, 2, 3), mk(1, 2, 3)
	if a.digest() != b.digest() {
		t.Fatalf("same series, different digests: %s vs %s", a.digest(), b.digest())
	}
	if d := mk(1, 2, 4); d.digest() == a.digest() {
		t.Fatalf("different series share digest %s", a.digest())
	}
}

// buildVerdictRecorder assembles a synthetic run exercising every verdict
// rule: flows on nodes 1..5 with tailored retransmission and wire activity.
func buildVerdictRecorder() (*Recorder, []HostMem, *clock) {
	c := &clock{}
	r := New(c.now)
	w := r.Wire("hippi", units.Millisecond)

	// Node 1: RTO fires against a memory-dropping receiver (node 9).
	starved := r.Flow("C0", 1, 100, 5001)
	// Node 2: RTO fires against a healthy receiver.
	rto := r.Flow("C1", 2, 101, 5001)
	// Node 3: persist probes (zero-window).
	wnd := r.Flow("C2", 3, 102, 5001)
	// Node 4: saturated source port, no loss.
	cont := r.Flow("C3", 4, 103, 5001)
	// Node 5: nothing notable.
	ok := r.Flow("C4", 5, 104, 5001)

	c.t = units.Millisecond
	for _, f := range []*FlowRec{starved, rto, wnd, cont, ok} {
		f.Note(FlowState{Cwnd: 65536, SndWnd: 65536})
	}
	starved.Rtx(RtxRTO)
	rto.Rtx(RtxRTO)
	wnd.Rtx(RtxPersist)
	c.t = 2 * units.Millisecond
	starved.Rtx(RtxRTO)
	rto.Rtx(RtxRTO)

	// Wire activity: every flow ships one frame so the join finds a
	// destination; the contended flow's port is busy the whole span.
	ms := units.Millisecond
	w.Tx(1, 9, 100, 4096, 0, 0, ms/10)
	w.Tx(2, 8, 101, 4096, 0, 0, ms/10)
	w.Tx(3, 8, 102, 4096, 0, 0, ms/10)
	w.Tx(4, 8, 103, 4096, 50*units.Microsecond, 0, 3*ms) // saturated + stalled
	w.Tx(5, 8, 104, 4096, 0, 0, ms/10)
	w.Rx(9, 4096, 0, 0, ms/10)

	mem := []HostMem{
		{Host: "S0", Node: 9, DropNoMem: 7},
		{Host: "S1", Node: 8},
	}
	return r, mem, c
}

func TestNetObsVerdictRules(t *testing.T) {
	r, mem, _ := buildVerdictRecorder()
	pm := r.Analyze(mem, Options{})
	want := map[string]string{
		"C0": VerdictNetmemStarved,
		"C1": VerdictRTOBound,
		"C2": VerdictWindowBound,
		"C3": VerdictPortContended,
		"C4": VerdictHealthy,
	}
	if len(pm.Flows) != len(want) {
		t.Fatalf("%d verdict rows, want %d", len(pm.Flows), len(want))
	}
	for _, f := range pm.Flows {
		if f.Verdict != want[f.Host] {
			t.Errorf("%s: verdict %q, want %q (row %+v)", f.Host, f.Verdict, want[f.Host], f)
		}
	}
	// The wire join must attribute bytes and find the starved peer's memory.
	if v := pm.Flows[0]; v.BytesOnWire != 4096 || v.DstNode != 9 || v.PeerDropNoMem != 7 {
		t.Fatalf("C0 wire join: %+v, want 4096 bytes to node 9 with drop_no_mem 7", v)
	}
	if got := pm.Verdict("C3", 103, 5001); got != VerdictPortContended {
		t.Fatalf("Verdict(C3) = %q", got)
	}
	if got := pm.Verdict("nope", 1, 2); got != "" {
		t.Fatalf("Verdict(unknown) = %q, want empty", got)
	}
}

func TestNetObsAnalyzeAfterCutoff(t *testing.T) {
	// The same synthetic run analyzed with a cutoff past every rtx event:
	// the loss-driven verdicts must relax (warmup exclusion semantics).
	r, mem, _ := buildVerdictRecorder()
	pm := r.Analyze(mem, Options{After: 10 * units.Millisecond})
	for _, f := range pm.Flows {
		if f.RtoFires != 0 || f.Persists != 0 {
			t.Fatalf("%s: post-cutoff rtx %d/%d, want 0/0", f.Host, f.RtoFires, f.Persists)
		}
		if f.Verdict == VerdictNetmemStarved || f.Verdict == VerdictRTOBound || f.Verdict == VerdictWindowBound {
			t.Fatalf("%s: loss verdict %q survived a cutoff past all events", f.Host, f.Verdict)
		}
	}
}

func TestNetObsSnapshotDeterministic(t *testing.T) {
	build := func() []byte {
		r, _, _ := buildVerdictRecorder()
		return r.Snapshot().JSON()
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("same synthetic run, different dumps")
	}
	var d Dump
	if err := json.Unmarshal(a, &d); err != nil {
		t.Fatalf("dump does not round-trip: %v", err)
	}
	if len(d.Flows) != 5 || len(d.Wires) != 1 {
		t.Fatalf("dump shape: %d flows, %d wires", len(d.Flows), len(d.Wires))
	}
	if d.Wires[0].Ports[0].Node != 1 {
		t.Fatalf("ports not sorted by node: first is %d", d.Wires[0].Ports[0].Node)
	}
}

func TestNetObsDropSplitCounters(t *testing.T) {
	var c clock
	r := New(c.now)
	w := r.Wire("hippi", 0)
	if d := r.Snapshot(); d.Wires[0].DropInj != 0 || d.Wires[0].DropUnattached != 0 || d.Wires[0].DropFull != 0 {
		t.Fatalf("drops with no reader = %+v, want none", d.Wires[0])
	}
	drops := Drops{Inj: 2, Unattached: 1, Full: 4}
	w.ReadDrops(func() Drops { return drops })
	d := r.Snapshot()
	if d.Wires[0].DropInj != 2 || d.Wires[0].DropUnattached != 1 || d.Wires[0].DropFull != 4 {
		t.Fatalf("drop split = %d/%d/%d, want 2/1/4", d.Wires[0].DropInj, d.Wires[0].DropUnattached, d.Wires[0].DropFull)
	}
	drops.Inj++ // the reader is live: a later snapshot sees the wire's count now
	if ws := r.Analyze(nil, Options{}).Wires[0]; ws.DropInj != 3 || ws.DropUnattached != 1 || ws.DropFull != 4 {
		t.Fatalf("postmortem drop split = %d/%d/%d, want 3/1/4", ws.DropInj, ws.DropUnattached, ws.DropFull)
	}
}

func TestNetObsChromeSmoke(t *testing.T) {
	r, _, _ := buildVerdictRecorder()
	out := r.Chrome()
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &f); err != nil {
		t.Fatalf("chrome output is not JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatalf("chrome output has no counter events")
	}
	for _, ev := range f.TraceEvents {
		if ev["ph"] != "C" {
			t.Fatalf("non-counter event: %v", ev)
		}
	}
}

func TestNetObsFormatSmoke(t *testing.T) {
	r, mem, _ := buildVerdictRecorder()
	out := r.Analyze(mem, Options{}).Format()
	for _, want := range []string{"netmem-starved", "RTO-bound", "window-bound",
		"port-contended", "healthy", "wire hippi", "drop_no_mem=7"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("postmortem text missing %q:\n%s", want, out)
		}
	}
}
