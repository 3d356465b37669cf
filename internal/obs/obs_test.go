package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/units"
)

// TestNilSinksAreNoOps pins the disabled-telemetry contract: every hot-path
// method on a nil receiver must be safe and free.
func TestNilSinksAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}

	var g *Gauge
	g.Set(7)
	if g.Value() != 0 || g.HighWater() != 0 {
		t.Fatal("nil gauge has a value")
	}

	var h *Histogram
	h.Observe(units.Millisecond)
	if h.Count() != 0 {
		t.Fatal("nil histogram has observations")
	}

	var tr *Trace
	sp := tr.StartSpan("x")
	if sp != nil {
		t.Fatal("nil trace returned a live span")
	}
	sp.DropTrace()
	if sp.Seg() != (Seg{}) {
		t.Fatal("nil span has a segment identity")
	}
	sp.Enter(StageSDMA)
	sp.EnterAt(StageWire, 5)
	sp.End()
	if st := tr.Stats(); st.Spans != 0 {
		t.Fatal("nil trace has spans")
	}

	var r *Registry
	if r.Counter("a") != nil || r.Gauge("b") != nil {
		t.Fatal("nil registry returned live sinks")
	}
	r.Func("c", func() int64 { return 1 })
	if r.TraceSink() != nil {
		t.Fatal("nil registry returned a trace")
	}
	if hm := r.Snapshot(); len(hm.Metrics) != 0 {
		t.Fatal("nil registry snapshot non-empty")
	}
}

// TestNilSinksAllocationFree asserts the disabled fast path allocates
// nothing — the benchmark-neutrality requirement.
func TestNilSinksAllocationFree(t *testing.T) {
	var c *Counter
	var g *Gauge
	var tr *Trace
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(3)
		sp := tr.StartSpan("h")
		sp.Enter(StageWire)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry allocates %.1f per op, want 0", allocs)
	}
}

func TestCounterGauge(t *testing.T) {
	tel := New(func() units.Time { return 0 })
	r := tel.Registry("h")
	c := r.Counter("tcp.retransmits")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	if r.Counter("tcp.retransmits") != c {
		t.Fatal("re-request did not share the counter")
	}
	g := r.Gauge("cab.netmem_pages")
	g.Set(9)
	g.Set(4)
	if g.Value() != 4 || g.HighWater() != 9 {
		t.Fatalf("gauge = %d/%d, want 4/9", g.Value(), g.HighWater())
	}
}

// TestGaugeIntervalHighWater pins the sampler contract: Reset starts a new
// measurement window whose peak is tracked independently of the all-time
// mark, and a freshly reset window's peak is at least the current level.
func TestGaugeIntervalHighWater(t *testing.T) {
	var g Gauge
	g.Set(9)
	g.Set(4)
	if g.IntervalHighWater() != 9 {
		t.Fatalf("pre-reset iwm = %d, want 9", g.IntervalHighWater())
	}
	g.Reset()
	if g.IntervalHighWater() != 4 {
		t.Fatalf("post-reset iwm = %d, want current level 4", g.IntervalHighWater())
	}
	g.Set(6)
	g.Set(2)
	if g.IntervalHighWater() != 6 {
		t.Fatalf("interval iwm = %d, want 6", g.IntervalHighWater())
	}
	if g.HighWater() != 9 {
		t.Fatalf("all-time hwm = %d, want 9 (Reset must not touch it)", g.HighWater())
	}
	// Nil receiver stays a no-op.
	var n *Gauge
	n.Reset()
	if n.IntervalHighWater() != 0 {
		t.Fatal("nil gauge has an interval mark")
	}
}

// TestHistogramBucketBounds pins the power-of-two boundary rule: an
// observation exactly on a bucket's inclusive upper bound (d == 1µs<<i)
// lands in bucket i, one nanosecond more lands in bucket i+1.
func TestHistogramBucketBounds(t *testing.T) {
	for i := 0; i < histBuckets-1; i++ {
		if got := bucketIndex(histBound(i)); got != i {
			t.Fatalf("bucketIndex(1µs<<%d) = %d, want %d", i, got, i)
		}
		if got := bucketIndex(histBound(i) + 1); got != i+1 {
			t.Fatalf("bucketIndex(1µs<<%d + 1ns) = %d, want %d", i, got, i+1)
		}
	}
	if got := bucketIndex(0); got != 0 {
		t.Fatalf("bucketIndex(0) = %d, want 0", got)
	}
	if got := bucketIndex(3600 * units.Second); got != histBuckets-1 {
		t.Fatalf("bucketIndex(1h) = %d, want top bucket %d", got, histBuckets-1)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram has a quantile")
	}
	// 90 fast observations, 10 slow: p50 in the fast bucket, p99 in the
	// slow one.
	for i := 0; i < 90; i++ {
		h.Observe(3 * units.Microsecond) // bucket 2, bound 4µs
	}
	for i := 0; i < 10; i++ {
		h.Observe(900 * units.Microsecond) // bound 1024µs
	}
	if q := h.Quantile(0.5); q != 4*units.Microsecond {
		t.Fatalf("p50 = %v, want 4µs", q)
	}
	if q := h.Quantile(0.99); q != 900*units.Microsecond {
		t.Fatalf("p99 = %v, want clamped max 900µs", q)
	}
	if q := h.Quantile(0); q != 3*units.Microsecond {
		t.Fatalf("p0 = %v, want min", q)
	}
	if q := h.Quantile(1); q != 900*units.Microsecond {
		t.Fatalf("p100 = %v, want max", q)
	}
	var nilh *Histogram
	if nilh.Quantile(0.5) != 0 {
		t.Fatal("nil histogram has a quantile")
	}
}

// Quantile on an empty or nil histogram, or with a NaN p, must return 0 —
// never panic, never produce a garbage conversion. Locked in because
// observers snapshot histograms unconditionally, including ones no event
// ever reached.
func TestHistogramQuantileEmpty(t *testing.T) {
	var h Histogram
	for _, p := range []float64{math.NaN(), -1, 0, 0.5, 1, 2, math.Inf(1)} {
		if q := h.Quantile(p); q != 0 {
			t.Fatalf("empty histogram Quantile(%v) = %v, want 0", p, q)
		}
	}
	var nilh *Histogram
	for _, p := range []float64{math.NaN(), 0.5} {
		if q := nilh.Quantile(p); q != 0 {
			t.Fatalf("nil histogram Quantile(%v) = %v, want 0", p, q)
		}
	}
	h.Observe(3 * units.Microsecond)
	if q := h.Quantile(math.NaN()); q != 0 {
		t.Fatalf("Quantile(NaN) = %v, want 0", q)
	}
	if q := h.Quantile(math.Inf(1)); q != 3*units.Microsecond {
		t.Fatalf("Quantile(+Inf) = %v, want max", q)
	}
}

func TestFuncFirstRegistrationWins(t *testing.T) {
	tel := New(func() units.Time { return 0 })
	r := tel.Registry("h")
	r.Func("x", func() int64 { return 1 })
	r.Func("x", func() int64 { return 2 })
	hm := r.Snapshot()
	if len(hm.Metrics) != 1 || hm.Metrics[0].Value != 1 {
		t.Fatalf("snapshot = %+v, want one metric x=1", hm.Metrics)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	h.Observe(500 * units.Nanosecond) // below the first bound
	h.Observe(3 * units.Microsecond)
	h.Observe(3 * units.Microsecond)
	h.Observe(units.Second) // far beyond the last bound
	h.Observe(-5)           // clamped to 0
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.MinNs != 0 || s.MaxNs != int64(units.Second) {
		t.Fatalf("min/max = %d/%d", s.MinNs, s.MaxNs)
	}
	var total int64
	for _, b := range s.Buckets {
		if b.Count == 0 {
			t.Fatal("snapshot contains an empty bucket")
		}
		total += b.Count
	}
	if total != 5 {
		t.Fatalf("bucket total = %d, want 5", total)
	}
}

func TestSnapshotSortedAndDeterministic(t *testing.T) {
	mk := func() Snapshot {
		now := units.Time(0)
		tel := New(func() units.Time { return now })
		// Register in deliberately unsorted order.
		b := tel.Registry("b")
		b.Counter("zzz.last").Inc()
		b.Counter("aaa.first").Add(2)
		b.Gauge("mid.gauge").Set(7)
		a := tel.Registry("a")
		a.Func("f.pull", func() int64 { return 42 })
		sp := tel.Trace().StartSpan("b")
		sp.Enter(StageSocket)
		now = 10 * units.Microsecond
		sp.Enter(StageWire)
		now = 30 * units.Microsecond
		sp.End()
		return tel.Snapshot()
	}
	s1, s2 := mk(), mk()
	if !bytes.Equal(s1.JSON(), s2.JSON()) {
		t.Fatal("identical construction produced different JSON")
	}
	// Hosts in creation order, metrics sorted by name.
	if s1.Hosts[0].Host != "b" || s1.Hosts[1].Host != "a" {
		t.Fatalf("host order: %s, %s", s1.Hosts[0].Host, s1.Hosts[1].Host)
	}
	names := []string{}
	for _, m := range s1.Hosts[0].Metrics {
		names = append(names, m.Name)
	}
	want := []string{"aaa.first", "mid.gauge", "mid.gauge.hwm", "zzz.last"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("metric order = %v, want %v", names, want)
	}
	if s1.Spans == nil || s1.Spans.Spans != 1 {
		t.Fatalf("spans = %+v, want 1 completed", s1.Spans)
	}
}

func TestSpanStagesAndChrome(t *testing.T) {
	now := units.Time(0)
	tel := New(func() units.Time { return now })
	tr := tel.Trace()

	sp := tr.StartSpanAt("h", 0)
	sp.EnterAt(StageSocket, 0)
	now = 5 * units.Microsecond
	sp.Enter(StagePacketize)
	now = 9 * units.Microsecond
	sp.Enter(StageSDMA)
	now = 20 * units.Microsecond
	sp.End()
	sp.End() // double End must be a no-op

	st := tr.Stats()
	if st.Spans != 1 {
		t.Fatalf("spans = %d, want 1", st.Spans)
	}
	if len(st.Stages) != 3 {
		t.Fatalf("stages = %d, want 3", len(st.Stages))
	}
	if st.Stages[0].Stage != "socket" || st.Stages[0].TotalNs != int64(5*units.Microsecond) {
		t.Fatalf("socket stage = %+v", st.Stages[0])
	}
	if st.Latency.MaxNs != int64(20*units.Microsecond) {
		t.Fatalf("latency max = %d", st.Latency.MaxNs)
	}

	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(tel.Chrome(), &f); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(f.TraceEvents) != 3 {
		t.Fatalf("chrome events = %d, want 3", len(f.TraceEvents))
	}
	if f.TraceEvents[2]["name"] != "sdma" || f.TraceEvents[2]["ph"] != "X" {
		t.Fatalf("event = %+v", f.TraceEvents[2])
	}
}

// TestDroppedSpanLeavesNoLatency pins the drop semantics: a span that never
// Ends contributes its stage events but not an end-to-end sample.
func TestDroppedSpanLeavesNoLatency(t *testing.T) {
	now := units.Time(0)
	tel := New(func() units.Time { return now })
	sp := tel.Trace().StartSpan("h")
	sp.Enter(StageWire)
	now = units.Millisecond
	sp.Enter(StageMDMA) // closes wire; mdma stays open forever
	st := tel.Trace().Stats()
	if st.Spans != 0 || st.Latency.Count != 0 {
		t.Fatalf("dropped span counted: %+v", st)
	}
	if len(st.Stages) != 1 || st.Stages[0].Stage != "wire" {
		t.Fatalf("stages = %+v, want wire only", st.Stages)
	}
}

// TestDropTraceSilencesSpan pins the legacy-path switch: after DropTrace a
// span's stage, latency and causal methods emit nothing and count toward
// no statistic, while it keeps the segment identity the ledger reads.
func TestDropTraceSilencesSpan(t *testing.T) {
	now := units.Time(0)
	tel := New(func() units.Time { return now })
	tr := tel.Trace()
	tr.EnableCrit()
	seg := Seg{Flow: 7, Off: 100, Len: 50, PayloadOff: 40, Desc: 3, Rtx: true}
	sp := tr.StartSeg("h", 0, seg)
	sp.Enter(StagePacketize)
	sp.DropTrace()
	now = units.Millisecond
	sp.Enter(StageSDMA) // would close packetize
	sp.EnterOn(StageMDMA, "g")
	if id := sp.CritEv(CauseCPU, EvTCPIn); id != 0 {
		t.Fatalf("CritEv after DropTrace = %d, want 0", id)
	}
	sp.CritEvJoin(CauseCPU, 0, CauseQueue, EvTCPOutput)
	sp.End()
	if st := tr.Stats(); st.Spans != 0 || len(st.Stages) != 0 || st.Latency.Count != 0 {
		t.Fatalf("silenced span counted: %+v", st)
	}
	if n := len(tr.Crit().Events()); n != 0 {
		t.Fatalf("silenced span recorded %d causal events", n)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(tel.Chrome(), &f); err != nil {
		t.Fatal(err)
	}
	if len(f.TraceEvents) != 0 {
		t.Fatalf("silenced span emitted %d trace events", len(f.TraceEvents))
	}
	if sp.Seg() != seg {
		t.Fatalf("Seg() = %+v, want %+v", sp.Seg(), seg)
	}
}

// TestTracelessSpanCarriesSeg pins the ledger-only handle: a span started
// on a nil trace carries its segment and nothing else, so every stage and
// causal method (End included) is a safe no-op.
func TestTracelessSpanCarriesSeg(t *testing.T) {
	var tr *Trace
	seg := Seg{Flow: 1, Len: 10}
	sp := tr.StartSeg("h", 5, seg)
	if sp == nil || sp.Seg() != seg {
		t.Fatalf("traceless span = %+v, want one carrying %+v", sp, seg)
	}
	sp.EnterAt(StageSocket, 5)
	sp.Enter(StagePacketize)
	sp.EnterOn(StageMDMA, "g")
	if sp.CritEv(CauseCPU, EvTCPIn) != 0 {
		t.Fatal("traceless span recorded a causal event")
	}
	sp.End()
	sp.End()
}

func TestFormatRendersTableAndHistogram(t *testing.T) {
	now := units.Time(0)
	tel := New(func() units.Time { return now })
	tel.Registry("h").Counter("tcp.segs_out").Add(12)
	sp := tel.Trace().StartSpan("h")
	sp.Enter(StageSocket)
	now = 2 * units.Millisecond
	sp.End()
	out := tel.Snapshot().Format()
	for _, want := range []string{"[h]", "tcp.segs_out", "12", "packet spans: 1 completed", "socket", "end-to-end latency", "#"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format() missing %q:\n%s", want, out)
		}
	}
}
