package ledger

import (
	"fmt"
	"sort"
	"strings"

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
func onHost(host string, kind Kind, skipRtx bool) func(Record) bool {
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
	// Strict demands the exact clean-run counts (no faults, no
	// retransmissions). Loose mode — for fault soaks — grants the
	// documented retransmit allowance: retransmit-flagged touches are
	// excluded from the "no CPU copy" checks, DMA touch counts relax from
	// "exactly one" to "at least one" (counting retransmissions, since a
	// lost original leaves only retransmit-flagged coverage), and the
	// receiver CPU-copy allowance widens from the auto-DMA head to any
	// DMA-delivered byte, because recovery can trim a segment to an
	// unaligned stream offset and force the descriptor-window copy-out
	// fallback.
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

// AssertSingleCopy verifies the paper's single-copy claim for one flow:
//
//   - every payload byte crosses the sender's host bus exactly once, by
//     SDMA with the checksum computed in flight — and is never touched by
//     the sender's CPU (no copy, no checksum pass);
//   - every payload byte crosses the receiver's host bus exactly once by
//     SDMA; the receiver's CPU copies a byte only when the adaptor
//     auto-DMAed it into a host receive buffer (the bounded per-packet
//     head), and never checksums any byte.
//
// In loose mode (Strict false) retransmitted bytes get the documented
// extra-touch allowance described on AuditConfig. A truncated ledger
// always fails: a dropped record could hide an extra touch.
func (l *Ledger) AssertSingleCopy(cfg AuditConfig) error {
	a := l.Audit(cfg.Flow, cfg.Total)
	var errs []string
	if a.Dropped > 0 {
		errs = append(errs, fmt.Sprintf("ledger truncated: %d records dropped", a.Dropped))
	}

	// Sender: one checksum-in-flight SDMA per byte, zero CPU touches. In
	// loose mode a byte whose original transmission was lost may exist
	// only as retransmit-flagged records, so the coverage count includes
	// them.
	if cfg.Strict {
		checkEach(&errs, "sender host-bus DMA touches",
			a.PerByte(onHost(cfg.SndHost, SDMAToNet, true)),
			func(n int) bool { return n == 1 }, "exactly 1 per byte")
	} else {
		checkEach(&errs, "sender host-bus DMA touches",
			a.PerByte(onHost(cfg.SndHost, SDMAToNet, false)),
			func(n int) bool { return n >= 1 }, "at least 1 per byte")
	}
	for _, r := range a.recs {
		if r.Host == cfg.SndHost && r.Kind == SDMAToNet && r.Flags&FlagCsumFlight == 0 {
			errs = append(errs, fmt.Sprintf(
				"sender SDMA without checksum-in-flight at [%d,%d)", int64(r.Off), int64(r.Off+r.Len)))
			break
		}
	}
	checkEach(&errs, "sender CPU copy touches", a.PerByte(onHost(cfg.SndHost, CPUCopy, !cfg.Strict)),
		func(n int) bool { return n == 0 }, "0 per byte")
	checkEach(&errs, "sender CPU checksum touches", a.PerByte(onHost(cfg.SndHost, CPUCsum, !cfg.Strict)),
		func(n int) bool { return n == 0 }, "0 per byte")

	// Receiver: one SDMA per byte; CPU copies only inside auto-DMA head
	// coverage; no CPU checksum.
	if cfg.Strict {
		checkEach(&errs, "receiver host-bus DMA touches",
			a.PerByte(onHost(cfg.RcvHost, SDMAToHost, true)),
			func(n int) bool { return n == 1 }, "exactly 1 per byte")
		// CPU copies stay inside the auto-DMA head allowance, one each.
		autoCover := coverage(a.PerByte(func(r Record) bool {
			return r.Host == cfg.RcvHost && r.Kind == SDMAToHost && r.Flags&FlagAutoDMA != 0
		}))
		for _, t := range a.PerByte(onHost(cfg.RcvHost, CPUCopy, false)) {
			if t.N == 0 {
				continue
			}
			if !covered(autoCover, t.Off, t.Off+t.Len) {
				errs = append(errs, fmt.Sprintf(
					"receiver CPU copy outside the auto-DMA head allowance: %s",
					describe([]Touches{t}, "copies only on auto-DMAed bytes")))
				break
			}
			if t.N != 1 {
				errs = append(errs, fmt.Sprintf(
					"receiver CPU copies on auto-DMAed bytes: %s",
					describe([]Touches{t}, "exactly 1 per head byte")))
				break
			}
		}
	} else {
		// Loose: recovery may trim a segment to an unaligned stream
		// offset, and the descriptor-window copy-out then falls back to a
		// CPU read of outboard memory — the copy is the bus crossing, so
		// those bytes have no SDMA record. The invariant that survives
		// faults is delivery conservation: every byte reached the host by
		// SDMA or by that documented CPU fallback, at least once.
		deliver := a.PerByte(func(r Record) bool {
			return r.Host == cfg.RcvHost && (r.Kind == SDMAToHost || r.Kind == CPUCopy)
		})
		checkEach(&errs, "receiver delivery touches", deliver,
			func(n int) bool { return n >= 1 }, "at least 1 per byte")
	}
	checkEach(&errs, "receiver CPU checksum touches", a.PerByte(onHost(cfg.RcvHost, CPUCsum, !cfg.Strict)),
		func(n int) bool { return n == 0 }, "0 per byte")

	if len(errs) > 0 {
		return fmt.Errorf("single-copy audit (flow %d, %d bytes): %s",
			cfg.Flow, int64(cfg.Total), strings.Join(errs, "; "))
	}
	return nil
}

// AssertMultiCopy verifies the unmodified-stack cost model for one flow:
// every payload byte is CPU-copied and CPU-checksummed on both hosts
// (≥2 copies + ≥2 checksum reads end to end), and no byte's checksum was
// computed in flight by the adaptor.
func (l *Ledger) AssertMultiCopy(cfg AuditConfig) error {
	a := l.Audit(cfg.Flow, cfg.Total)
	var errs []string
	if a.Dropped > 0 {
		errs = append(errs, fmt.Sprintf("ledger truncated: %d records dropped", a.Dropped))
	}
	atLeastOne := func(n int) bool { return n >= 1 }
	checkEach(&errs, "sender CPU copy touches",
		a.PerByte(onHost(cfg.SndHost, CPUCopy, false)), atLeastOne, "at least 1 per byte")
	checkEach(&errs, "sender CPU checksum touches",
		a.PerByte(onHost(cfg.SndHost, CPUCsum, false)), atLeastOne, "at least 1 per byte")
	checkEach(&errs, "receiver CPU copy touches",
		a.PerByte(onHost(cfg.RcvHost, CPUCopy, false)), atLeastOne, "at least 1 per byte")
	checkEach(&errs, "receiver CPU checksum touches",
		a.PerByte(onHost(cfg.RcvHost, CPUCsum, false)), atLeastOne, "at least 1 per byte")
	for _, r := range a.recs {
		if r.Flags&FlagCsumFlight != 0 {
			errs = append(errs, "checksum-in-flight DMA on the unmodified path")
			break
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("multi-copy audit (flow %d, %d bytes): %s",
			cfg.Flow, int64(cfg.Total), strings.Join(errs, "; "))
	}
	return nil
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
		for k := Kind(0); k < numKinds; k++ {
			ev, bytes := a.Count(onHost(host, k, false))
			if ev == 0 {
				continue
			}
			min, max := MinMax(a.PerByte(onHost(host, k, false)))
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
