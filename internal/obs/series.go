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

// column is one registered series column. A tick reads fn, or for a
// KindPeak column g's interval high-water mark.
type column struct {
	name string
	kind SeriesKind
	fn   func() int64
	g    *Gauge
}

// Series is one host's ring-buffered utilization time-series: a fixed set
// of columns sampled together on a virtual-time tick. A nil *Series is a
// valid no-op sink.
//
// A tick stores raw readings only: the time, each counter as read and each
// peak gauge's interval mark (read and reset). Snapshot derives a delta or
// per-mille column from consecutive raw rows, so the tick does no
// arithmetic. The rows live in a ring of capacity+1 slots, the extra one
// holding the raw row just before the oldest kept sample once the ring
// wraps. The slots live in chunks with a Log's geometry, 64 rows doubling
// up to 1024 rows and then 1024 each, allocated as the ring first reaches
// them and never moved: a short run pays for the rows it took, as a
// doubling slice would, and no tick copies an earlier row.
type Series struct {
	host string
	set  *SeriesSet
	cols []column

	chunks [][]int64 // slot i is row chunkAt(i, seriesFirstShift, seriesChunkShift)
	next   int       // the slot the next tick writes
	rest   []int64   // the rows of next's chunk from next on
	filled int64     // total samples ever taken (the ring may have dropped some)
}

// The ring's chunks hold 1<<seriesFirstShift rows first, doubling to
// 1<<seriesChunkShift (see chunkLen). The last chunk holds only the slots
// left, so a small ring costs only its capacity, and a default-capacity
// one takes 21 allocations, about as many as the doubling slices it
// replaced.
const (
	seriesFirstShift = 6
	seriesChunkShift = 10
)

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

// slots is the ring's length in rows: the set's capacity plus the row
// before the oldest kept sample.
func (s *Series) slots() int { return s.set.capacity + 1 }

// row returns slot i's raw row: the time, then one reading per column.
func (s *Series) row(i int) []int64 {
	w := len(s.cols) + 1
	k, off := chunkAt(i, seriesFirstShift, seriesChunkShift)
	off *= w
	return s.chunks[k][off : off+w]
}

// sample stores one raw row at virtual time now, into the next ring slot.
// Every cell is written: a reused slot holds an old row.
func (s *Series) sample(now units.Time) {
	if len(s.rest) == 0 {
		s.rest = s.reach(s.next)
	}
	w := len(s.cols) + 1
	row := s.rest[:w]
	s.rest = s.rest[w:]
	row[0] = int64(now)
	for i := range s.cols {
		if c := &s.cols[i]; c.g != nil {
			row[i+1] = c.g.IntervalHighWater()
			c.g.Reset()
		} else {
			row[i+1] = c.fn()
		}
	}
	if s.next++; s.next == s.slots() {
		s.next = 0
	}
	s.filled++
}

// reach returns the rows of slot i's chunk from slot i on, allocating the
// chunk when the ring first reaches it. A tick calls it only when the rows
// it holds run out, at a chunk's end or where the ring wraps.
func (s *Series) reach(i int) []int64 {
	if s.chunks == nil {
		last, _ := chunkAt(s.slots()-1, seriesFirstShift, seriesChunkShift)
		s.chunks = make([][]int64, last+1)
	}
	w := len(s.cols) + 1
	k, off := chunkAt(i, seriesFirstShift, seriesChunkShift)
	if s.chunks[k] == nil {
		// The ring takes its slots in order, so it first reaches a
		// chunk at the chunk's first row.
		rows := min(chunkLen(k, seriesFirstShift, seriesChunkShift), s.slots()-i)
		s.chunks[k] = make([]int64, rows*w)
	}
	return s.chunks[k][off*w:]
}

// derive turns the raw readings cur, taken one interval after prev, into
// the exported values out (nil prev: the first sample, measured against a
// zero baseline).
func (s *Series) derive(out, prev, cur []int64, interval units.Time) {
	for i, c := range s.cols {
		v := cur[i]
		if prev != nil && (c.kind == KindDelta || c.kind == KindUtilPerMille) {
			v -= prev[i]
		}
		if c.kind == KindUtilPerMille {
			d := v
			v = 0
			if interval > 0 {
				v = d * 1000 / int64(interval)
			}
			// CPU accounting posts in scheduler-quantum chunks, so one
			// interval can observe more accrual than its own span (the
			// next observes correspondingly less). Clamp: the column is a
			// utilization, not a conservation ledger.
			v = min(v, 1000)
		}
		out[i] = v
	}
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
		s.sample(now)
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
		n, w := int(min(s.filled, int64(ss.capacity))), len(s.cols)
		hs := HostSeries{Host: s.host, Dropped: s.filled - int64(n)}
		for _, c := range s.cols {
			hs.Columns = append(hs.Columns, c.name)
		}
		if n > 0 {
			hs.Samples = make([]SeriesSample, n)
		}
		vals := make([]int64, n*w)
		// The oldest kept sample sits n slots behind the next one; the
		// slot before it holds its baseline once the ring has wrapped.
		slot := (s.next - n + s.slots()) % s.slots()
		var prev []int64
		if s.filled > int64(n) {
			prev = s.row((slot + s.slots() - 1) % s.slots())[1:]
		}
		for i := range hs.Samples {
			cur := s.row(slot)
			hs.Samples[i].TNs = cur[0]
			if w > 0 {
				v := vals[i*w : (i+1)*w : (i+1)*w]
				s.derive(v, prev, cur[1:], ss.interval)
				hs.Samples[i].V = v
			}
			prev = cur[1:]
			if slot++; slot == s.slots() {
				slot = 0
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
