package obs

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/units"
)

// SeriesKind says how a column turns its source reading into a sample.
type SeriesKind int

const (
	// KindLevel records the source value as-is (an instantaneous level,
	// e.g. netmem pages in use or a window size).
	KindLevel SeriesKind = iota
	// KindDelta records the change since the previous sample (turns a
	// cumulative counter into a per-interval rate).
	KindDelta
	// KindUtilPerMille records delta·1000/interval — the share of the
	// interval a cumulative virtual-time counter advanced, in per-mille.
	// Integer arithmetic keeps the export byte-deterministic.
	KindUtilPerMille
	// KindPeak records a gauge's interval high-water mark, then Resets it
	// so the next interval reports its own peak.
	KindPeak
)

// column is one registered series column.
type column struct {
	name string
	kind SeriesKind
	fn   func() int64
	g    *Gauge
	prev int64
}

// Series is one host's ring-buffered utilization time-series: a fixed set
// of columns sampled together on a virtual-time tick. A nil *Series is a
// valid no-op sink.
//
// The ring is flat: sample i is times[i] and the row vals[i*w:(i+1)*w],
// w = len(cols), so a tick writes its row in place and allocates nothing.
// The ring grows by doubling up to the set's capacity, then overwrites
// the oldest sample; a short run never pays for the whole capacity.
type Series struct {
	host string
	set  *SeriesSet
	cols []column

	times  []units.Time
	vals   []int64
	start  int   // index of the oldest sample once the ring is full
	filled int64 // total samples ever taken (the ring may have dropped some)
}

// seriesFirstRing is the number of samples a series makes room for at its
// first tick.
const seriesFirstRing = 64

func (s *Series) add(c column) {
	if s == nil {
		return
	}
	if s.filled > 0 {
		panic("obs: series column " + c.name + " registered after sampling began")
	}
	s.cols = append(s.cols, c)
}

// Level registers a column recording fn's value as-is at each tick.
func (s *Series) Level(name string, fn func() int64) {
	s.add(column{name: name, kind: KindLevel, fn: fn})
}

// Delta registers a column recording fn's advance since the previous tick.
func (s *Series) Delta(name string, fn func() int64) {
	s.add(column{name: name, kind: KindDelta, fn: fn})
}

// UtilPerMille registers a column recording the per-mille share of each
// interval that the cumulative virtual-time counter fn advanced — the CPU
// utilization shape (fn == busy ns ⇒ 1000 means fully busy).
func (s *Series) UtilPerMille(name string, fn func() int64) {
	s.add(column{name: name, kind: KindUtilPerMille, fn: fn})
}

// Peak registers a column recording g's per-interval high-water mark; each
// tick reads the mark and Resets it.
func (s *Series) Peak(name string, g *Gauge) {
	s.add(column{name: name, kind: KindPeak, g: g})
}

// sample takes one row at virtual time now, into the next free ring slot
// or over the oldest sample. Every column is written: a reused slot holds
// an old row.
func (s *Series) sample(now units.Time, interval units.Time) {
	w := len(s.cols)
	var row []int64
	if n := len(s.times); n < s.set.capacity {
		if n == cap(s.times) {
			s.grow()
		}
		s.times = append(s.times, now)
		s.vals = s.vals[:(n+1)*w]
		row = s.vals[n*w:]
	} else {
		s.times[s.start] = now
		row = s.vals[s.start*w : (s.start+1)*w]
		s.start = (s.start + 1) % n
	}
	for i := range s.cols {
		c := &s.cols[i]
		var v int64
		switch c.kind {
		case KindLevel:
			v = c.fn()
		case KindDelta:
			cur := c.fn()
			v = cur - c.prev
			c.prev = cur
		case KindUtilPerMille:
			cur := c.fn()
			d := cur - c.prev
			c.prev = cur
			if interval > 0 {
				v = d * 1000 / int64(interval)
			}
			// CPU accounting posts in scheduler-quantum chunks, so one
			// interval can observe more accrual than its own span (the
			// next observes correspondingly less). Clamp: the column is a
			// utilization, not a conservation ledger.
			if v > 1000 {
				v = 1000
			}
		case KindPeak:
			v = c.g.IntervalHighWater()
			c.g.Reset()
		}
		row[i] = v
	}
	s.filled++
}

// grow doubles the ring's room (seriesFirstRing at first), up to the
// set's capacity. It runs only while the ring has not yet wrapped, so the
// samples stay in order.
func (s *Series) grow() {
	n := min(max(2*cap(s.times), seriesFirstRing), s.set.capacity)
	times := make([]units.Time, len(s.times), n)
	copy(times, s.times)
	vals := make([]int64, len(s.vals), n*len(s.cols))
	copy(vals, s.vals)
	s.times, s.vals = times, vals
}

// SeriesSet owns the per-host series of one testbed, all sampled on the
// same virtual-time interval. A nil *SeriesSet is a valid disabled sampler.
type SeriesSet struct {
	interval units.Time
	capacity int
	series   []*Series
	lat      *Histogram // optional latency source for quantile columns
}

// DefaultSeriesCapacity bounds each host's ring buffer; at the default
// 100µs tick this holds the trailing ~1.6s of virtual time.
const DefaultSeriesCapacity = 16384

// NewSeriesSet returns a sampler ticking every interval of virtual time,
// each host ring-buffered to capacity samples (DefaultSeriesCapacity if
// capacity <= 0).
func NewSeriesSet(interval units.Time, capacity int) *SeriesSet {
	if capacity <= 0 {
		capacity = DefaultSeriesCapacity
	}
	return &SeriesSet{interval: interval, capacity: capacity}
}

// Interval returns the sampling interval (0 for nil).
func (ss *SeriesSet) Interval() units.Time {
	if ss == nil {
		return 0
	}
	return ss.interval
}

// Series creates (or returns) the series labeled host. Hosts appear in
// snapshots in creation order. Nil-safe.
func (ss *SeriesSet) Series(host string) *Series {
	if ss == nil {
		return nil
	}
	for _, s := range ss.series {
		if s.host == host {
			return s
		}
	}
	s := &Series{host: host, set: ss}
	ss.series = append(ss.series, s)
	return s
}

// SetLatencySource attaches the live latency histogram whose running
// quantiles the snapshot reports alongside the series.
func (ss *SeriesSet) SetLatencySource(h *Histogram) {
	if ss != nil {
		ss.lat = h
	}
}

// Sample takes one row on every host's series at virtual time now. Nil-safe.
func (ss *SeriesSet) Sample(now units.Time) {
	if ss == nil {
		return
	}
	for _, s := range ss.series {
		s.sample(now, ss.interval)
	}
}

// SeriesSample is one exported row.
type SeriesSample struct {
	TNs int64   `json:"t_ns"`
	V   []int64 `json:"v"`
}

// HostSeries is one host's exported series.
type HostSeries struct {
	Host    string         `json:"host"`
	Columns []string       `json:"columns"`
	Dropped int64          `json:"dropped,omitempty"` // samples lost to the ring
	Samples []SeriesSample `json:"samples"`
}

// QuantileStat is one exported latency quantile.
type QuantileStat struct {
	P  float64 `json:"p"`
	Ns int64   `json:"ns"`
}

// SeriesSnapshot is the full exported time-series: hosts in creation order,
// samples oldest-first, slices only so marshaling is byte-deterministic.
type SeriesSnapshot struct {
	IntervalNs int64          `json:"interval_ns"`
	Hosts      []HostSeries   `json:"hosts"`
	LatencyQ   []QuantileStat `json:"latency_quantiles,omitempty"`
}

// Snapshot exports every host's series.
func (ss *SeriesSet) Snapshot() SeriesSnapshot {
	if ss == nil {
		return SeriesSnapshot{}
	}
	snap := SeriesSnapshot{IntervalNs: int64(ss.interval)}
	for _, s := range ss.series {
		n, w := len(s.times), len(s.cols)
		hs := HostSeries{Host: s.host, Dropped: s.filled - int64(n)}
		for _, c := range s.cols {
			hs.Columns = append(hs.Columns, c.name)
		}
		if n > 0 {
			hs.Samples = make([]SeriesSample, n)
		}
		vals := make([]int64, 0, len(s.vals))
		for i := range hs.Samples {
			j := (s.start + i) % n
			hs.Samples[i].TNs = int64(s.times[j])
			if w > 0 {
				vals = append(vals, s.vals[j*w:(j+1)*w]...)
				hs.Samples[i].V = vals[i*w : (i+1)*w : (i+1)*w]
			}
		}
		snap.Hosts = append(snap.Hosts, hs)
	}
	if ss.lat.Count() > 0 {
		for _, p := range []float64{0.5, 0.9, 0.99} {
			snap.LatencyQ = append(snap.LatencyQ,
				QuantileStat{P: p, Ns: int64(ss.lat.Quantile(p))})
		}
	}
	return snap
}

// JSON renders the snapshot as deterministic, indented JSON.
func (s SeriesSnapshot) JSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic("obs: series marshal: " + err.Error())
	}
	return append(b, '\n')
}

// CSV renders the snapshot as one flat table: host,t_ns,then one column per
// registered name. Hosts with different column sets produce separate header
// lines.
func (s SeriesSnapshot) CSV() string {
	var b strings.Builder
	prevHeader := ""
	for _, h := range s.Hosts {
		header := "host,t_ns," + strings.Join(h.Columns, ",")
		if header != prevHeader {
			b.WriteString(header + "\n")
			prevHeader = header
		}
		for _, row := range h.Samples {
			b.WriteString(h.Host)
			fmt.Fprintf(&b, ",%d", row.TNs)
			for _, v := range row.V {
				fmt.Fprintf(&b, ",%d", v)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
