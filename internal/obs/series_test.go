package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/race"
	"repro/internal/units"
)

func TestNilSeriesSetIsNoOp(t *testing.T) {
	var ss *SeriesSet
	s := ss.Series("A")
	if s != nil {
		t.Fatal("nil set returned a series")
	}
	s.Level("x", func() int64 { return 1 })
	s.Delta("y", nil)
	s.UtilPerMille("z", nil)
	s.Peak("w", nil)
	ss.Sample(0)
	ss.SetLatencySource(nil)
	if ss.Interval() != 0 {
		t.Fatal("nil set has an interval")
	}
	if snap := ss.Snapshot(); len(snap.Hosts) != 0 {
		t.Fatal("nil set snapshot non-empty")
	}
}

func TestSeriesColumnKinds(t *testing.T) {
	ss := NewSeriesSet(100*units.Microsecond, 8)
	s := ss.Series("A")
	var busy, level int64
	var g Gauge
	s.UtilPerMille("cpu.util_pm", func() int64 { return busy })
	s.Delta("bytes", func() int64 { return level })
	s.Level("pages", func() int64 { return level / 10 })
	s.Peak("q.peak", &g)

	busy, level = 50_000, 100 // half the interval busy
	g.Set(7)
	g.Set(2)
	ss.Sample(100 * units.Microsecond)
	busy, level = 150_000, 250 // fully busy this interval
	g.Set(4)
	ss.Sample(200 * units.Microsecond)

	snap := ss.Snapshot()
	if len(snap.Hosts) != 1 {
		t.Fatalf("hosts = %d", len(snap.Hosts))
	}
	h := snap.Hosts[0]
	wantCols := "cpu.util_pm,bytes,pages,q.peak"
	if strings.Join(h.Columns, ",") != wantCols {
		t.Fatalf("columns = %v", h.Columns)
	}
	if len(h.Samples) != 2 {
		t.Fatalf("samples = %d", len(h.Samples))
	}
	r1, r2 := h.Samples[0], h.Samples[1]
	if r1.TNs != 100_000 || r1.V[0] != 500 || r1.V[1] != 100 || r1.V[2] != 10 || r1.V[3] != 7 {
		t.Fatalf("row1 = %+v", r1)
	}
	// Second interval: util 1000‰, delta 150, peak is 4 (reset dropped 7).
	if r2.V[0] != 1000 || r2.V[1] != 150 || r2.V[3] != 4 {
		t.Fatalf("row2 = %+v", r2)
	}
}

func TestSeriesRingOverwrite(t *testing.T) {
	ss := NewSeriesSet(units.Microsecond, 4)
	s := ss.Series("A")
	i := int64(0)
	s.Level("i", func() int64 { return i })
	for i = 1; i <= 10; i++ {
		ss.Sample(units.Time(i) * units.Microsecond)
	}
	h := ss.Snapshot().Hosts[0]
	if len(h.Samples) != 4 || h.Dropped != 6 {
		t.Fatalf("samples=%d dropped=%d", len(h.Samples), h.Dropped)
	}
	// Oldest-first: values 7..10 survive.
	for k, want := range []int64{7, 8, 9, 10} {
		if h.Samples[k].V[0] != want {
			t.Fatalf("sample %d = %+v, want %d", k, h.Samples[k], want)
		}
	}
}

func TestSeriesEmptySnapshotAndCSV(t *testing.T) {
	// A set with no hosts exports an empty (but well-formed) snapshot.
	ss := NewSeriesSet(10*units.Microsecond, 0)
	snap := ss.Snapshot()
	if len(snap.Hosts) != 0 || len(snap.LatencyQ) != 0 {
		t.Fatalf("empty set snapshot = %+v", snap)
	}
	if csv := snap.CSV(); csv != "" {
		t.Fatalf("empty set CSV = %q, want empty", csv)
	}
	// A registered host that was never sampled still exports its header
	// and column names, with zero rows.
	s := ss.Series("A")
	s.Level("x", func() int64 { return 1 })
	snap = ss.Snapshot()
	if len(snap.Hosts) != 1 || len(snap.Hosts[0].Samples) != 0 || snap.Hosts[0].Dropped != 0 {
		t.Fatalf("unsampled host snapshot = %+v", snap.Hosts)
	}
	if csv := snap.CSV(); csv != "host,t_ns,x\n" {
		t.Fatalf("unsampled host CSV = %q, want header only", csv)
	}
}

func TestSeriesSingleSample(t *testing.T) {
	ss := NewSeriesSet(100*units.Microsecond, 0)
	s := ss.Series("A")
	v := int64(123_456)
	s.Delta("d", func() int64 { return v })
	s.UtilPerMille("u", func() int64 { return 50_000 })
	ss.Sample(100 * units.Microsecond)
	h := ss.Snapshot().Hosts[0]
	if len(h.Samples) != 1 {
		t.Fatalf("samples = %d, want 1", len(h.Samples))
	}
	// The first delta/util sample is measured against a zero baseline.
	if r := h.Samples[0]; r.TNs != 100_000 || r.V[0] != 123_456 || r.V[1] != 500 {
		t.Fatalf("single row = %+v", r)
	}
	if csv := ss.Snapshot().CSV(); csv != "host,t_ns,d,u\nA,100000,123456,500\n" {
		t.Fatalf("single-row CSV = %q", csv)
	}
}

func TestSeriesPeakIntervalReset(t *testing.T) {
	// KindPeak reads the gauge's interval high-water and Resets it, so each
	// interval reports its own peak — and the reset floor is the *current*
	// level, not zero (a level that persists across the tick is still the
	// peak of the next window).
	ss := NewSeriesSet(10*units.Microsecond, 0)
	s := ss.Series("A")
	var g Gauge
	s.Peak("p", &g)

	g.Set(9)
	g.Set(3)
	ss.Sample(10 * units.Microsecond) // interval peak 9, resets floor to 3
	ss.Sample(20 * units.Microsecond) // nothing set: floor carries as peak
	g.Set(5)
	g.Set(1)
	ss.Sample(30 * units.Microsecond)
	h := ss.Snapshot().Hosts[0]
	want := []int64{9, 3, 5}
	for i, w := range want {
		if h.Samples[i].V[0] != w {
			t.Fatalf("peak rows = %v, want %v", h.Samples, want)
		}
	}
	if g.HighWater() != 9 {
		t.Fatalf("all-time high water = %d, want 9 (Reset must not clear it)", g.HighWater())
	}
}

func TestSeriesSnapshotDeterministicAndCSV(t *testing.T) {
	mk := func() SeriesSnapshot {
		ss := NewSeriesSet(10*units.Microsecond, 0)
		var h Histogram
		for k := 0; k < 10; k++ {
			h.Observe(units.Time(k+1) * units.Microsecond)
		}
		ss.SetLatencySource(&h)
		for _, host := range []string{"A", "B"} {
			s := ss.Series(host)
			v := int64(len(host))
			s.Level("x", func() int64 { return v })
		}
		ss.Sample(10 * units.Microsecond)
		ss.Sample(20 * units.Microsecond)
		return ss.Snapshot()
	}
	s1, s2 := mk(), mk()
	if !bytes.Equal(s1.JSON(), s2.JSON()) {
		t.Fatal("series JSON not deterministic")
	}
	if len(s1.LatencyQ) != 3 || s1.LatencyQ[0].P != 0.5 || s1.LatencyQ[0].Ns <= 0 {
		t.Fatalf("latency quantiles = %+v", s1.LatencyQ)
	}
	csv := s1.CSV()
	if !strings.HasPrefix(csv, "host,t_ns,x\n") {
		t.Fatalf("csv header:\n%s", csv)
	}
	if !strings.Contains(csv, "A,10000,1\n") || !strings.Contains(csv, "B,20000,1\n") {
		t.Fatalf("csv rows:\n%s", csv)
	}
}

// allKinds registers one column of every kind on host h of ss.
func allKinds(ss *SeriesSet, h string, v *int64, g *Gauge) {
	s := ss.Series(h)
	s.Level("level", func() int64 { return *v })
	s.Delta("delta", func() int64 { return *v })
	s.UtilPerMille("util", func() int64 { return *v })
	s.Peak("peak", g)
}

// TestSeriesSampleAllocNothing pins the sampler's tick: once the ring's
// chunks exist a tick writes in place and allocates nothing, also after
// the ring has wrapped, and the chunks are allocated once each, so filling
// a 4096-sample ring allocates 9 times (its chunk index and 8 chunks: 64,
// 128, 256, 512, three of 1024 and the last 65 of its 4097 slots), not
// once per tick and with no copy.
func TestSeriesSampleAllocNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	var v int64
	var g Gauge
	const small = 1 << seriesChunkShift
	ss := NewSeriesSet(units.Microsecond, small)
	allKinds(ss, "A", &v, &g)
	allKinds(ss, "B", &v, &g)
	now := units.Time(0)
	tick := func() {
		now += units.Microsecond
		v += 37
		g.Set(v % 11)
		ss.Sample(now)
	}
	for i := 0; i <= small; i++ {
		tick()
	}
	if n := testing.AllocsPerRun(3*small, tick); n != 0 {
		t.Fatalf("a tick allocated %v times, want 0", n)
	}
	if h := ss.Snapshot().Hosts[0]; h.Dropped == 0 || len(h.Samples) != small {
		t.Fatalf("ring never wrapped: %d samples, %d dropped", len(h.Samples), h.Dropped)
	}

	const capacity = 4096
	sets := make([]*SeriesSet, 3) // AllocsPerRun's warm-up run and two measured ones
	for i := range sets {
		sets[i] = NewSeriesSet(units.Microsecond, capacity)
		allKinds(sets[i], "A", &v, &g)
	}
	k := 0
	if n := testing.AllocsPerRun(2, func() {
		for i := 1; i <= 2*capacity; i++ {
			sets[k].Sample(units.Time(i))
		}
		k++
	}); n != 9 {
		t.Fatalf("filling a %d-sample ring allocated %v times, want 9 (the chunk index and 8 chunks)", capacity, n)
	}
}

// TestSeriesRingStartsSmall: a series makes room for 64 samples at its
// first tick, not for the set's whole capacity.
func TestSeriesRingStartsSmall(t *testing.T) {
	ss := NewSeriesSet(units.Microsecond, 0)
	s := ss.Series("A")
	s.Level("x", func() int64 { return 1 })
	ss.Sample(units.Microsecond)
	held := 0
	for _, c := range s.chunks {
		held += len(c)
	}
	if held != 64*2 {
		t.Fatalf("first tick reserved %d cells, want %d (64 rows of time and x)", held, 64*2)
	}
}

// refSeries is the per-tick derivation the sampler used to do, kept as the
// oracle for Snapshot's export-time one: each tick turned its readings into
// exported values at once, against the previous reading of each column.
type refSeries struct {
	kinds    []SeriesKind
	prev     []int64
	capacity int
	rows     []SeriesSample
	dropped  int64
}

func (r *refSeries) sample(now, interval units.Time, read []int64) {
	v := make([]int64, len(read))
	for i, k := range r.kinds {
		switch k {
		case KindLevel, KindPeak:
			v[i] = read[i]
		case KindDelta:
			v[i] = read[i] - r.prev[i]
			r.prev[i] = read[i]
		case KindUtilPerMille:
			d := read[i] - r.prev[i]
			r.prev[i] = read[i]
			if interval > 0 {
				v[i] = d * 1000 / int64(interval)
			}
			if v[i] > 1000 {
				v[i] = 1000
			}
		}
	}
	r.rows = append(r.rows, SeriesSample{TNs: int64(now), V: v})
	if len(r.rows) > r.capacity {
		r.rows = r.rows[1:]
		r.dropped++
	}
}

// TestSeriesMatchesPerTickOracle drives random columns of every kind
// through the raw-row ring and through refSeries, with counter jumps of up
// to three intervals (so the per-mille clamp bites) and the odd step back,
// on a zero and a non-zero interval and on rings of 8 and 4096 samples
// that wrap, and requires every snapshot, mid-run and at the end, to equal
// the oracle's rows.
func TestSeriesMatchesPerTickOracle(t *testing.T) {
	for _, tc := range []struct {
		capacity int
		interval units.Time
		ticks    int
	}{
		{8, 100 * units.Microsecond, 50},
		{8, 0, 30},
		{4096, 20 * units.Microsecond, 2*4096 + 77},
		{4096, 0, 4100},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			w := 1 + rng.Intn(6)
			ss := NewSeriesSet(tc.interval, tc.capacity)
			s := ss.Series("A")
			ref := &refSeries{prev: make([]int64, w), capacity: tc.capacity}
			cnt := make([]int64, w)
			gs, refGs := make([]Gauge, w), make([]Gauge, w)
			for i := 0; i < w; i++ {
				k := SeriesKind(rng.Intn(4))
				ref.kinds = append(ref.kinds, k)
				name := fmt.Sprintf("c%d", i)
				read := func() int64 { return cnt[i] }
				switch k {
				case KindLevel:
					s.Level(name, read)
				case KindDelta:
					s.Delta(name, read)
				case KindUtilPerMille:
					s.UtilPerMille(name, read)
				case KindPeak:
					s.Peak(name, &gs[i])
				}
			}
			check := func(at int) {
				h := ss.Snapshot().Hosts[0]
				if h.Dropped != ref.dropped || !reflect.DeepEqual(h.Samples, ref.rows) && len(h.Samples)+len(ref.rows) > 0 {
					t.Fatalf("cap %d interval %v seed %d, after %d ticks: snapshot (%d rows, %d dropped) differs from the oracle (%d rows, %d dropped)",
						tc.capacity, tc.interval, seed, at, len(h.Samples), h.Dropped, len(ref.rows), ref.dropped)
				}
			}
			span := max(int64(tc.interval), 1)
			read := make([]int64, w)
			for tick := 1; tick <= tc.ticks; tick++ {
				for i, k := range ref.kinds {
					switch k {
					case KindLevel:
						cnt[i] = rng.Int63n(2_000_001) - 1_000_000
					case KindDelta, KindUtilPerMille:
						if rng.Intn(20) == 0 {
							cnt[i] -= rng.Int63n(span + 1)
						} else {
							cnt[i] += rng.Int63n(3*span + 1)
						}
					case KindPeak:
						for n := rng.Intn(4); n > 0; n-- {
							x := rng.Int63n(1000)
							gs[i].Set(x)
							refGs[i].Set(x)
						}
					}
				}
				now := units.Time(tick) * units.Time(span)
				ss.Sample(now)
				for i, k := range ref.kinds {
					read[i] = cnt[i]
					if k == KindPeak {
						read[i] = refGs[i].IntervalHighWater()
						refGs[i].Reset()
					}
				}
				ref.sample(now, tc.interval, read)
				if rng.Intn(tc.capacity/2+1) == 0 {
					check(tick)
				}
			}
			check(tc.ticks)
		}
	}
}

// TestSeriesWrappedRowsFullyWritten: a wrapped ring reuses the oldest
// row's storage, so every column must be written on every tick — also a
// utilization column on a zero interval, which reads 0.
func TestSeriesWrappedRowsFullyWritten(t *testing.T) {
	ss := NewSeriesSet(0, 2)
	s := ss.Series("A")
	v := int64(0)
	s.Level("x", func() int64 { return v })
	s.UtilPerMille("u", func() int64 { return v * 1000 })
	s.Level("y", func() int64 { return -v })
	for v = 1; v <= 5; v++ {
		ss.Sample(units.Time(v))
	}
	got := ss.Snapshot().CSV()
	if want := "host,t_ns,x,u,y\nA,4,4,0,-4\nA,5,5,0,-5\n"; got != want {
		t.Fatalf("wrapped rows:\n%s\nwant:\n%s", got, want)
	}
}

// TestSeriesColumnAfterSamplingPanics: a row's width is fixed by the first
// tick.
func TestSeriesColumnAfterSamplingPanics(t *testing.T) {
	ss := NewSeriesSet(units.Microsecond, 0)
	s := ss.Series("A")
	s.Level("x", func() int64 { return 1 })
	ss.Sample(units.Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("a column registered after the first tick was accepted")
		}
	}()
	s.Level("late", func() int64 { return 2 })
}
