package netobs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/units"
)

// HostMem is the per-host adaptor-memory and arbiter view the analyzer
// joins against, supplied by the caller so netobs stays decoupled from the
// cab package.
type HostMem struct {
	Host        string `json:"host"`
	Node        int    `json:"node"`
	DropNoMem   int64  `json:"drop_no_mem"`
	DropNoBuf   int64  `json:"drop_no_buf"`
	RxRetries   int64  `json:"rx_retries"`
	ArbWaits    int64  `json:"arb_waits"`
	ArbBorrows  int64  `json:"arb_borrows"`
	ArbReclaims int64  `json:"arb_reclaims"`
}

// Options configures a postmortem.
type Options struct {
	// After excludes retransmission events and busy windows before this
	// virtual time (typically the warmup cutoff).  Series digests always
	// cover the whole run.
	After units.Time
}

// Verdicts, ordered from most to least specific; the analyzer assigns the
// first whose rule fires.
const (
	// VerdictNetmemStarved: the flow kept hitting its retransmission
	// timer while the receiving host's adaptor was dropping frames for
	// lack of network memory — the paper's outboard-buffer exhaustion
	// failure mode.
	VerdictNetmemStarved = "netmem-starved"
	// VerdictRTOBound: repeated RTO fires without receiver memory
	// pressure (loss or a silent peer dominates the timeline).
	VerdictRTOBound = "RTO-bound"
	// VerdictWindowBound: the peer's advertised window closed and the
	// flow sat in persist, probing a zero window.
	VerdictWindowBound = "window-bound"
	// VerdictPortContended: the flow's source port spent almost all of
	// its active span busy or stalled behind other traffic.
	VerdictPortContended = "port-contended"
	// VerdictHealthy: none of the above.
	VerdictHealthy = "healthy"
)

// Analyzer thresholds.  Tuned on the PR-5 incast pair: starved elephants
// fire their retransmission timer many times (backoff through teardown),
// healthy arbitrated elephants at most once.
const (
	rtoBoundMin         = 2   // RTO fires after cutoff to call a flow RTO-bound
	portBusyPerMilleMin = 950 // source-port busy fraction to call it contended
)

// FlowVerdict is one flow's postmortem row.
type FlowVerdict struct {
	Host    string `json:"host"`
	Node    int    `json:"node"`
	Port    int    `json:"port"`
	RPort   int    `json:"rport"`
	Verdict string `json:"verdict"`

	// Post-cutoff retransmission taxonomy.
	RtoFires   int64 `json:"rto_fires"`
	FastRtx    int64 `json:"fast_rtx"`
	Persists   int64 `json:"persists"`
	Keepalives int64 `json:"keepalives"`

	// Series shape: sample count and content digest (whole run), final
	// cwnd/RTO, and virtual time spent with a zero send window.
	Samples   int    `json:"samples"`
	Digest    string `json:"digest"`
	LastCwnd  int64  `json:"last_cwnd"`
	LastRtoNs int64  `json:"last_rto_ns"`
	ZeroWndNs int64  `json:"zero_wnd_ns"`

	// Wire join: bytes this flow put on the wire and where they went.
	BytesOnWire int64 `json:"bytes_on_wire"`
	DstNode     int   `json:"dst_node"`

	// Source-port tx busy fraction over the post-cutoff span.
	TxBusyPerMille int64 `json:"tx_busy_per_mille"`

	// Receiver-side memory pressure (from the joined HostMem, if any).
	PeerDropNoMem int64 `json:"peer_drop_no_mem"`
}

// PortSummary condenses one port's wire telemetry for the postmortem.
type PortSummary struct {
	Node           int    `json:"node"`
	Name           string `json:"name,omitempty"`    // trunk ports only
	TxBusyPerMille int64  `json:"tx_busy_per_mille"` // post-cutoff mean
	RxBusyPerMille int64  `json:"rx_busy_per_mille"`
	TxFrames       int64  `json:"tx_frames"`
	RxFrames       int64  `json:"rx_frames"`
	TxBytes        int64  `json:"tx_bytes"`
	RxBytes        int64  `json:"rx_bytes"`
	TxStalls       int64  `json:"tx_stalls"`
	RxStalls       int64  `json:"rx_stalls"`
	TxStallP99Ns   int64  `json:"tx_stall_p99_ns"`
	RxStallP99Ns   int64  `json:"rx_stall_p99_ns"`
}

// WireSummary condenses one fabric for the postmortem.
type WireSummary struct {
	Label          string        `json:"label"`
	Ports          []PortSummary `json:"ports"`
	DropInj        int64         `json:"drop_inj"`
	DropUnattached int64         `json:"drop_unattached"`
	DropFull       int64         `json:"drop_full,omitempty"`
}

// Postmortem is the analyzer's output: one verdict per flow plus the wire
// and host-memory context the verdicts were derived from.
type Postmortem struct {
	AfterNs int64         `json:"after_ns"`
	Flows   []FlowVerdict `json:"flows"`
	Wires   []WireSummary `json:"wires"`
	Hosts   []HostMem     `json:"hosts"`
}

// busyOver returns the mean busy per-mille of the windows at or after the
// cutoff, up to the last active window.
func busyOver(busy []units.Time, window, after units.Time) int64 {
	first := int(after / window)
	if first >= len(busy) {
		return 0
	}
	var sum units.Time
	n := 0
	for i := first; i < len(busy); i++ {
		sum += busy[i]
		n++
	}
	if n == 0 {
		return 0
	}
	pm := int64(sum) * 1000 / (int64(window) * int64(n))
	if pm > 1000 {
		pm = 1000
	}
	return pm
}

// zeroWndTime sums the virtual time the series spent with SndWnd == 0
// while data was pending (flight or the sample after shows activity).
func zeroWndTime(samples *obs.Log[FlowSample]) int64 {
	var total int64
	for i := 0; i+1 < samples.Len(); i++ {
		if s := samples.At(i); s.SndWnd == 0 {
			total += samples.At(i+1).TNs - s.TNs
		}
	}
	return total
}

// Analyze joins the recorder's flow series, wire telemetry and the given
// per-host memory stats into per-flow verdicts.  Returns nil on a nil
// recorder.
func (r *Recorder) Analyze(mem []HostMem, opt Options) *Postmortem {
	if r == nil {
		return nil
	}
	after := opt.After
	pm := &Postmortem{AfterNs: int64(after)}

	memByNode := make(map[int]HostMem, len(mem))
	for _, m := range mem {
		memByNode[m.Node] = m
	}
	pm.Hosts = append([]HostMem(nil), mem...)
	sort.Slice(pm.Hosts, func(i, j int) bool {
		if pm.Hosts[i].Node != pm.Hosts[j].Node {
			return pm.Hosts[i].Node < pm.Hosts[j].Node
		}
		return pm.Hosts[i].Host < pm.Hosts[j].Host
	})
	if pm.Hosts == nil {
		pm.Hosts = []HostMem{}
	}

	for _, f := range r.flows {
		v := FlowVerdict{
			Host:    f.Host,
			Node:    f.Node,
			Port:    f.Port,
			RPort:   f.RPort,
			Samples: f.samples.Len(),
			Digest:  f.digest(),
			DstNode: -1,
		}
		for i := 0; i < f.rtxEvents.Len(); i++ {
			e := f.rtxEvents.At(i)
			if units.Time(e.TNs) < after {
				continue
			}
			switch e.Kind {
			case RtxRTO:
				v.RtoFires++
			case RtxFast:
				v.FastRtx++
			case RtxPersist:
				v.Persists++
			case RtxKeepalive:
				v.Keepalives++
			}
		}
		if n := f.samples.Len(); n > 0 {
			v.LastCwnd = f.samples.At(n - 1).Cwnd
			v.LastRtoNs = f.samples.At(n - 1).RtoNs
		}
		v.ZeroWndNs = zeroWndTime(&f.samples)

		// Wire join: the flow tag on tx frames is the sender's local
		// port, so (node, port) finds this flow's bytes and its
		// destination node — and through it the receiver's memory
		// stats.
		for _, w := range r.wires {
			if fw := w.flows[flowKey{src: f.Node, flow: f.Port}]; fw != nil {
				v.BytesOnWire += fw.bytes
				v.DstNode = fw.dst
			}
			if p := w.ports[f.Node]; p != nil {
				if bpm := busyOver(p.txBusy, w.window, after); bpm > v.TxBusyPerMille {
					v.TxBusyPerMille = bpm
				}
			}
		}
		if m, ok := memByNode[v.DstNode]; ok {
			v.PeerDropNoMem = m.DropNoMem
		}

		switch {
		case v.RtoFires >= rtoBoundMin && v.PeerDropNoMem > 0:
			v.Verdict = VerdictNetmemStarved
		case v.RtoFires >= rtoBoundMin:
			v.Verdict = VerdictRTOBound
		case v.Persists > 0:
			v.Verdict = VerdictWindowBound
		case v.TxBusyPerMille >= portBusyPerMilleMin:
			v.Verdict = VerdictPortContended
		default:
			v.Verdict = VerdictHealthy
		}
		pm.Flows = append(pm.Flows, v)
	}
	sort.SliceStable(pm.Flows, func(i, j int) bool {
		a, b := &pm.Flows[i], &pm.Flows[j]
		if a.Host != b.Host {
			return a.Host < b.Host
		}
		if a.Port != b.Port {
			return a.Port < b.Port
		}
		return a.RPort < b.RPort
	})
	if pm.Flows == nil {
		pm.Flows = []FlowVerdict{}
	}

	for _, w := range r.wires {
		ws := WireSummary{
			Label:          w.Label,
			DropInj:        w.dropInj,
			DropUnattached: w.dropUnattached,
			DropFull:       w.dropFull,
		}
		nodes := append([]int(nil), w.portOrder...)
		sort.Ints(nodes)
		for _, node := range nodes {
			p := w.ports[node]
			ws.Ports = append(ws.Ports, PortSummary{
				Node:           p.node,
				Name:           p.name,
				TxBusyPerMille: busyOver(p.txBusy, w.window, after),
				RxBusyPerMille: busyOver(p.rxBusy, w.window, after),
				TxFrames:       p.txFrames,
				RxFrames:       p.rxFrames,
				TxBytes:        p.txBytes,
				RxBytes:        p.rxBytes,
				TxStalls:       p.txStalls,
				RxStalls:       p.rxStalls,
				TxStallP99Ns:   int64(p.txStallHist.Quantile(0.99)),
				RxStallP99Ns:   int64(p.rxStallHist.Quantile(0.99)),
			})
		}
		if ws.Ports == nil {
			ws.Ports = []PortSummary{}
		}
		pm.Wires = append(pm.Wires, ws)
	}
	if pm.Wires == nil {
		pm.Wires = []WireSummary{}
	}
	return pm
}

// Verdict returns the verdict string for (host, port, rport), or "" if the
// flow is unknown.  Convenience for machine checks.
func (p *Postmortem) Verdict(host string, port, rport int) string {
	if p == nil {
		return ""
	}
	for i := range p.Flows {
		f := &p.Flows[i]
		if f.Host == host && f.Port == port && f.RPort == rport {
			return f.Verdict
		}
	}
	return ""
}

// JSON renders the postmortem as deterministic indented JSON.
func (p *Postmortem) JSON() []byte {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		panic("netobs: postmortem marshal: " + err.Error())
	}
	return append(b, '\n')
}

// Format renders the postmortem as a human report.
func (p *Postmortem) Format() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "transport-dynamics postmortem (after %s)\n", units.Time(p.AfterNs))
	fmt.Fprintf(&b, "  %-8s %-6s %-6s %-16s %6s %6s %6s %6s %10s %8s %8s\n",
		"host", "port", "rport", "verdict", "rto", "fast", "prst", "ka", "wirebytes", "txbusy", "0wnd")
	for i := range p.Flows {
		f := &p.Flows[i]
		fmt.Fprintf(&b, "  %-8s %-6d %-6d %-16s %6d %6d %6d %6d %10d %7d‰ %8s\n",
			f.Host, f.Port, f.RPort, f.Verdict,
			f.RtoFires, f.FastRtx, f.Persists, f.Keepalives,
			f.BytesOnWire, f.TxBusyPerMille, units.Time(f.ZeroWndNs))
	}
	for _, w := range p.Wires {
		if len(w.Ports) == 0 && w.DropInj == 0 && w.DropUnattached == 0 && w.DropFull == 0 {
			continue
		}
		fmt.Fprintf(&b, "  wire %s: drops inj=%d unattached=%d", w.Label, w.DropInj, w.DropUnattached)
		if w.DropFull > 0 {
			fmt.Fprintf(&b, " full=%d", w.DropFull)
		}
		b.WriteString("\n")
		for _, pt := range w.Ports {
			label := strconv.Itoa(pt.Node)
			if pt.Name != "" {
				label = pt.Name
			}
			fmt.Fprintf(&b, "    node %-3s tx %4d‰ busy %8d frames %6d stalls (p99 %s)  rx %4d‰ busy %8d frames %6d stalls (p99 %s)\n",
				label,
				pt.TxBusyPerMille, pt.TxFrames, pt.TxStalls, units.Time(pt.TxStallP99Ns),
				pt.RxBusyPerMille, pt.RxFrames, pt.RxStalls, units.Time(pt.RxStallP99Ns))
		}
	}
	for _, h := range p.Hosts {
		if h.DropNoMem == 0 && h.DropNoBuf == 0 && h.RxRetries == 0 && h.ArbWaits == 0 {
			continue
		}
		fmt.Fprintf(&b, "  host %s (node %d): drop_no_mem=%d drop_no_buf=%d rx_retries=%d arb_waits=%d borrows=%d reclaims=%d\n",
			h.Host, h.Node, h.DropNoMem, h.DropNoBuf, h.RxRetries,
			h.ArbWaits, h.ArbBorrows, h.ArbReclaims)
	}
	return b.String()
}
