package ledger

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/taxonomy"
	"repro/internal/units"
)

// Touches is one run of consecutive stream bytes with the same touch
// count: bytes [Off, Off+Len) were each touched N times.
type Touches struct {
	Off, Len units.Size
	N        int
}

// Audit is one flow's per-byte view of the ledger over the stream range
// [0, Total).
type Audit struct {
	Flow    int
	Total   units.Size
	Dropped int64
	recs    []Record
}

// Audit selects one flow's records for per-byte analysis over [0, total).
func (l *Ledger) Audit(flow int, total units.Size) *Audit {
	a := &Audit{Flow: flow, Total: total, Dropped: l.Dropped()}
	for i := 0; i < l.records.Len(); i++ {
		if r := l.records.At(i); r.Flow == flow {
			a.recs = append(a.recs, *r)
		}
	}
	return a
}

// PerByte folds the records passing keep into a touch histogram: a
// partition of [0, Total) into maximal runs of equal touch count,
// including zero-count gaps. The sweep is over interval endpoints, so it
// is exact and cheap regardless of transfer size.
func (a *Audit) PerByte(keep func(Record) bool) []Touches {
	delta := map[units.Size]int{}
	for _, r := range a.recs {
		if keep != nil && !keep(r) {
			continue
		}
		lo, hi := r.Off, r.Off+r.Len
		if lo < 0 {
			lo = 0
		}
		if hi > a.Total {
			hi = a.Total
		}
		if hi <= lo {
			continue
		}
		delta[lo]++
		delta[hi]--
	}
	cuts := make([]units.Size, 0, len(delta)+2)
	cuts = append(cuts, 0, a.Total)
	for off := range delta {
		cuts = append(cuts, off)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	var out []Touches
	depth := 0
	for i := 0; i < len(cuts); i++ {
		off := cuts[i]
		if off >= a.Total {
			break
		}
		if i > 0 && off == cuts[i-1] {
			continue
		}
		depth += delta[off]
		end := a.Total
		for j := i + 1; j < len(cuts); j++ {
			if cuts[j] > off {
				end = cuts[j]
				break
			}
		}
		if n := len(out); n > 0 && out[n-1].N == depth {
			out[n-1].Len += end - off
		} else {
			out = append(out, Touches{Off: off, Len: end - off, N: depth})
		}
	}
	if len(out) == 0 && a.Total > 0 {
		out = append(out, Touches{Off: 0, Len: a.Total, N: 0})
	}
	return out
}

// MinMax returns the smallest and largest per-byte touch count over the
// histogram's range.
func MinMax(h []Touches) (min, max int) {
	if len(h) == 0 {
		return 0, 0
	}
	min, max = h[0].N, h[0].N
	for _, t := range h[1:] {
		if t.N < min {
			min = t.N
		}
		if t.N > max {
			max = t.N
		}
	}
	return min, max
}

// Count totals the events and bytes of the records passing keep (bytes
// clipped to [0, Total)).
func (a *Audit) Count(keep func(Record) bool) (events int64, bytes units.Size) {
	for _, r := range a.recs {
		if keep != nil && !keep(r) {
			continue
		}
		lo, hi := r.Off, r.Off+r.Len
		if lo < 0 {
			lo = 0
		}
		if hi > a.Total {
			hi = a.Total
		}
		if hi <= lo {
			continue
		}
		events++
		bytes += hi - lo
	}
	return events, bytes
}

// onHost selects host+kind, optionally excluding retransmit-flagged
// records.
func onHost(host obs.Name, kind Kind, skipRtx bool) func(Record) bool {
	return func(r Record) bool {
		if r.Host != host || r.Kind != kind {
			return false
		}
		return !(skipRtx && r.Flags&FlagRtx != 0)
	}
}

// AuditConfig names the parties of an end-to-end assertion.
type AuditConfig struct {
	// Flow is the data sender's local port (see Ledger.MainFlow).
	Flow int
	// Total is the stream length in bytes.
	Total units.Size
	// SndHost and RcvHost are the hook labels of the data sender and
	// receiver.
	SndHost, RcvHost string
	// Strict demands the exact clean-run counts. Loose mode — for fault
	// soaks — grants the documented retransmit allowance:
	// retransmit-flagged touches are left out of the "must be zero"
	// checks, and expected counts relax from "exactly n" to "at least n"
	// (counting retransmissions, since a lost original leaves only
	// retransmit-flagged coverage). The receiver is held to delivery
	// conservation instead of a DMA count: recovery can trim a segment
	// to an unaligned stream offset and force the descriptor-window
	// copy-out fallback, a CPU read of outboard memory that is itself the
	// bus crossing.
	Strict bool
}

// describe renders a failing histogram region for the error message.
func describe(h []Touches, want string) string {
	var bad []string
	for _, t := range h {
		bad = append(bad, fmt.Sprintf("[%d,%d)=%d", int64(t.Off), int64(t.Off+t.Len), t.N))
		if len(bad) == 4 {
			bad = append(bad, "...")
			break
		}
	}
	return fmt.Sprintf("want %s, got %s", want, strings.Join(bad, " "))
}

// checkEach verifies every byte's touch count satisfies ok.
func checkEach(errs *[]string, what string, h []Touches, ok func(int) bool, want string) {
	for _, t := range h {
		if !ok(t.N) {
			*errs = append(*errs, fmt.Sprintf("%s: %s", what, describe(h, want)))
			return
		}
	}
}

// Want is what a Table 1 cell predicts per payload byte on one host: CPU
// copies, CPU checksum passes and host-bus DMAs, and whether each DMA
// computes the transport checksum in flight.
type Want struct {
	Copy, Csum, DMA int
	Flight          bool
}

// CellWant reads a cell's ops as touches per payload byte on the sending
// (send) or receiving host:
//
//	Copy    one cpu_copy
//	Read_C  one cpu_csum
//	Copy_C  one cpu_copy and one cpu_csum
//	DMA     one host-bus SDMA, not checksum-in-flight
//	DMA_C   one host-bus SDMA: checksum-in-flight on transmit; on
//	        receive the adaptor verified the sum on arrival, so no
//	        CPU checksum
//
// PIO has no touch kind in the ledger (no simulated adaptor does PIO), so
// a cell with a PIO op cannot be audited.
func CellWant(c taxonomy.Cell, send bool) (Want, error) {
	var w Want
	for _, op := range c.Ops {
		switch op {
		case taxonomy.OpCopy:
			w.Copy++
		case taxonomy.OpReadC:
			w.Csum++
		case taxonomy.OpCopyC:
			w.Copy++
			w.Csum++
		case taxonomy.OpDMA:
			w.DMA++
		case taxonomy.OpDMAC:
			w.DMA++
			w.Flight = send
		default:
			return w, fmt.Errorf("cell %v: %s has no ledger touch", c.Config, op)
		}
	}
	return w, nil
}

// AssertCell verifies one flow against the Table 1 cells its stack
// realizes: every payload byte takes exactly the touches CellWant reads
// from tx on the sender and from rx on the receiver, and no kind the cell
// has no op for. Two allowances come from the paper's hardware, not from
// the table:
//
//   - Auto-DMA heads: the adaptor DMAs each arriving packet's first bytes
//     into a host receive buffer, from which the receiver's CPU copies
//     them. When the receive cell has no copy, strict mode lets receiver
//     copies touch only auto-DMAed bytes, once each; loose mode leaves
//     them to delivery conservation.
//   - Loose mode (Strict false): the retransmit allowance on AuditConfig.
//
// A truncated ledger always fails: a dropped record could hide an extra
// touch.
func (l *Ledger) AssertCell(tx, rx taxonomy.Cell, cfg AuditConfig) error {
	a := l.Audit(cfg.Flow, cfg.Total)
	var errs []string
	if a.Dropped > 0 {
		errs = append(errs, fmt.Sprintf("ledger truncated: %d records dropped", a.Dropped))
	}
	a.checkHost(&errs, "sender", l.names.Lookup(cfg.SndHost), tx, true, cfg.Strict)
	a.checkHost(&errs, "receiver", l.names.Lookup(cfg.RcvHost), rx, false, cfg.Strict)
	if len(errs) > 0 {
		return fmt.Errorf("audit of cells [%s]/[%s] (flow %d, %d bytes): %s",
			tx.OpString(), rx.OpString(), cfg.Flow, int64(cfg.Total), strings.Join(errs, "; "))
	}
	return nil
}

// AssertSingleCopy is AssertCell on the CAB's cells, kept for the bench module.
func (l *Ledger) AssertSingleCopy(cfg AuditConfig) error {
	return l.AssertCell(taxonomy.Derive(taxonomy.CAB), taxonomy.DeriveReceive(taxonomy.CAB), cfg)
}

// checkHost checks one host's touches against its cell.
func (a *Audit) checkHost(errs *[]string, role string, host obs.Name, c taxonomy.Cell, send, strict bool) {
	w, err := CellWant(c, send)
	if err != nil {
		*errs = append(*errs, fmt.Sprintf("%s: %v", role, err))
		return
	}
	dma := SDMAToHost
	if send {
		dma = SDMAToNet
	}
	if !send && !strict {
		// Every byte reached the host by SDMA or by the CPU copy-out
		// fallback, at least once.
		checkEach(errs, role+" delivery touches", a.PerByte(func(r Record) bool {
			return r.Host == host && (r.Kind == dma || r.Kind == CPUCopy)
		}), func(n int) bool { return n >= 1 }, "at least 1 per byte")
	} else {
		a.expect(errs, role+" host-bus DMA touches", host, dma, w.DMA, strict)
	}
	for _, r := range a.recs {
		if r.Host == host && r.Kind == dma && (r.Flags&FlagCsumFlight != 0) != w.Flight {
			*errs = append(*errs, fmt.Sprintf("%s SDMA at [%d,%d): checksum-in-flight %v, want %v",
				role, int64(r.Off), int64(r.Off+r.Len), !w.Flight, w.Flight))
			break
		}
	}
	// A copy-free receive cell's CPU copies are the auto-DMA heads' or,
	// in loose mode, the copy-out fallback already counted as delivery.
	switch {
	case send || w.Copy > 0:
		a.expect(errs, role+" CPU copy touches", host, CPUCopy, w.Copy, strict)
	case strict:
		a.autoDMAHeads(errs, host)
	}
	a.expect(errs, role+" CPU checksum touches", host, CPUCsum, w.Csum, strict)
}

// expect checks that every byte took n touches of kind on host. Strict:
// exactly n not counting retransmissions, and none at all when n is 0.
// Loose: at least n counting retransmissions, and none but
// retransmissions when n is 0.
func (a *Audit) expect(errs *[]string, what string, host obs.Name, kind Kind, n int, strict bool) {
	switch {
	case n == 0:
		checkEach(errs, what, a.PerByte(onHost(host, kind, !strict)),
			func(m int) bool { return m == 0 }, "0 per byte")
	case strict:
		checkEach(errs, what, a.PerByte(onHost(host, kind, true)),
			func(m int) bool { return m == n }, fmt.Sprintf("exactly %d per byte", n))
	default:
		checkEach(errs, what, a.PerByte(onHost(host, kind, false)),
			func(m int) bool { return m >= n }, fmt.Sprintf("at least %d per byte", n))
	}
}

// autoDMAHeads holds a copy-free receiver's CPU copies to the auto-DMA
// head allowance: only auto-DMAed bytes, once each.
func (a *Audit) autoDMAHeads(errs *[]string, host obs.Name) {
	autoCover := coverage(a.PerByte(func(r Record) bool {
		return r.Host == host && r.Kind == SDMAToHost && r.Flags&FlagAutoDMA != 0
	}))
	for _, t := range a.PerByte(onHost(host, CPUCopy, false)) {
		if t.N == 0 {
			continue
		}
		if !covered(autoCover, t.Off, t.Off+t.Len) {
			*errs = append(*errs, "receiver CPU copy outside the auto-DMA head allowance: "+
				describe([]Touches{t}, "copies only on auto-DMAed bytes"))
			return
		}
		if t.N != 1 {
			*errs = append(*errs, "receiver CPU copies on auto-DMAed bytes: "+
				describe([]Touches{t}, "exactly 1 per head byte"))
			return
		}
	}
}

// coverage reduces a histogram to the intervals with nonzero count.
func coverage(h []Touches) []Touches {
	var out []Touches
	for _, t := range h {
		if t.N > 0 {
			out = append(out, t)
		}
	}
	return out
}

// covered reports whether [lo, hi) lies entirely inside the coverage set.
func covered(cov []Touches, lo, hi units.Size) bool {
	for _, t := range cov {
		if lo >= t.Off && hi <= t.Off+t.Len {
			return true
		}
		// Coverage segments are disjoint and sorted; a range spanning two
		// segments with a gap between them is not covered, but adjacent
		// merged segments are already one Touches entry.
	}
	return false
}

// KindCount is one (host, kind) row of a flow summary.
type KindCount struct {
	Kind       string `json:"kind"`
	Events     int64  `json:"events"`
	Bytes      int64  `json:"bytes"`
	MinPerByte int    `json:"min_per_byte"`
	MaxPerByte int    `json:"max_per_byte"`
}

// HostSummary is one host's touch counts for a flow.
type HostSummary struct {
	Host  string      `json:"host"`
	Kinds []KindCount `json:"kinds"`
}

// FlowSummary is the machine-readable per-flow audit table: for each host
// and touch kind, total events/bytes and the per-byte min/max over the
// stream. All integers; identical runs marshal byte-identically.
type FlowSummary struct {
	Flow       int           `json:"flow"`
	TotalBytes int64         `json:"total_bytes"`
	Hosts      []HostSummary `json:"hosts"`
	Dropped    int64         `json:"dropped,omitempty"`
}

// Summary builds the audit table for one flow over [0, total), reporting
// the given hosts in the given order (kinds in declaration order).
func (l *Ledger) Summary(flow int, total units.Size, hosts []string) FlowSummary {
	a := l.Audit(flow, total)
	fs := FlowSummary{Flow: flow, TotalBytes: int64(total), Dropped: a.Dropped}
	for _, host := range hosts {
		hs := HostSummary{Host: host, Kinds: []KindCount{}}
		id := l.names.Lookup(host)
		for k := Kind(0); k < numKinds; k++ {
			ev, bytes := a.Count(onHost(id, k, false))
			if ev == 0 {
				continue
			}
			min, max := MinMax(a.PerByte(onHost(id, k, false)))
			hs.Kinds = append(hs.Kinds, KindCount{
				Kind: k.String(), Events: ev, Bytes: int64(bytes),
				MinPerByte: min, MaxPerByte: max,
			})
		}
		fs.Hosts = append(fs.Hosts, hs)
	}
	return fs
}

// Format renders the summary as a human-readable table.
func (fs FlowSummary) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "data-touch audit: flow %d, %d payload bytes\n", fs.Flow, fs.TotalBytes)
	fmt.Fprintf(&b, "  %-6s %-14s %8s %12s %10s\n", "host", "kind", "events", "bytes", "per-byte")
	for _, hs := range fs.Hosts {
		for _, k := range hs.Kinds {
			per := fmt.Sprintf("%d", k.MinPerByte)
			if k.MaxPerByte != k.MinPerByte {
				per = fmt.Sprintf("%d..%d", k.MinPerByte, k.MaxPerByte)
			}
			fmt.Fprintf(&b, "  %-6s %-14s %8d %12d %10s\n", hs.Host, k.Kind, k.Events, k.Bytes, per)
		}
	}
	if fs.Dropped > 0 {
		fmt.Fprintf(&b, "  (records dropped: %d)\n", fs.Dropped)
	}
	return b.String()
}
