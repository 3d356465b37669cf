package load

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/hippi"
	"repro/internal/obs"
	"repro/internal/obs/netobs"
	"repro/internal/socket"
	"repro/internal/tcpip"
	"repro/internal/units"
)

// orderDigest is an FNV-1a hash over every delivery event (kind, flow,
// seq, virtual time). Two runs with identical event ordering produce the
// same digest; any reordering, loss difference, or timing change alters
// it.
type orderDigest struct{ h uint64 }

func newOrderDigest() *orderDigest { return &orderDigest{h: 14695981039346656037} }

func (d *orderDigest) note(kind byte, flow, seq int, t units.Time) {
	for _, v := range [...]uint64{uint64(kind), uint64(flow), uint64(seq), uint64(t)} {
		for i := 0; i < 8; i++ {
			d.h ^= (v >> (8 * i)) & 0xff
			d.h *= 1099511628211
		}
	}
}

func (d *orderDigest) hex() string { return fmt.Sprintf("%016x", d.h) }

// FlowReport is one flow's result (emitted for small scenarios).
type FlowReport struct {
	ID          int     `json:"id"`
	Proto       string  `json:"proto"`
	Port        int     `json:"port"`
	Bytes       int64   `json:"bytes"`
	Requests    int64   `json:"requests,omitempty"`
	DgramsSent  int64   `json:"dgrams_sent,omitempty"`
	DgramsRcvd  int64   `json:"dgrams_rcvd,omitempty"`
	GoodputMbps float64 `json:"goodput_mbps"`
	LatP50Us    float64 `json:"lat_p50_us,omitempty"`
	LatP99Us    float64 `json:"lat_p99_us,omitempty"`
}

// Report is one run's aggregate result. All fields are deterministic
// functions of the Scenario, so byte-identical JSON across runs is the
// determinism check.
type Report struct {
	Name     string `json:"name"`
	Seed     int64  `json:"seed"`
	Flows    int    `json:"flows"`
	TCPFlows int    `json:"tcp_flows"`
	UDPFlows int    `json:"udp_flows"`
	Mode     string `json:"mode"`
	Bulk     bool   `json:"bulk"`
	Arbiter  bool   `json:"arbiter"`
	// Topology and CC identify the fabric and congestion-control variant
	// (omitted for classic single-switch Reno runs, keeping their reports
	// byte-identical to the pre-fabric format).
	Topology string `json:"topology,omitempty"`
	CC       string `json:"cc,omitempty"`

	VTimeSec   float64 `json:"vtime_sec"`
	WindowSec  float64 `json:"window_sec"` // goodput measurement window
	TotalBytes int64   `json:"total_bytes"`
	SentBytes  int64   `json:"sent_bytes"`
	Requests   int64   `json:"requests"`
	DgramsSent int64   `json:"dgrams_sent"`
	DgramsRcvd int64   `json:"dgrams_rcvd"`

	GoodputMinMbps  float64 `json:"goodput_min_mbps"`
	GoodputP50Mbps  float64 `json:"goodput_p50_mbps"`
	GoodputMeanMbps float64 `json:"goodput_mean_mbps"`
	GoodputMaxMbps  float64 `json:"goodput_max_mbps"`
	LatP50Us        float64 `json:"lat_p50_us"`
	LatP99Us        float64 `json:"lat_p99_us"`
	LatP999Us       float64 `json:"lat_p999_us"`
	// LatHist is the full aggregate latency histogram (bucket upper bounds
	// in ns with cumulative-ready counts), so report consumers can compute
	// any quantile instead of the three precomputed ones.
	LatHist *obs.HistSnapshot `json:"lat_hist,omitempty"`

	Jain    float64 `json:"jain"`
	Starved int     `json:"starved"`

	ArbWaits        int64 `json:"arb_waits"`
	ArbBorrows      int64 `json:"arb_borrows"`
	ArbReclaims     int64 `json:"arb_reclaims"`
	ListenOverflows int64 `json:"listen_overflows"`
	Drops           int64 `json:"drops"`
	RxRetries       int64 `json:"rx_retries"`

	// ECNMarked counts frames CE-marked by the fabric; TrunkDrops counts
	// tail drops at capped trunk queues; Trunks carries the per-trunk
	// byte/frame counters (the ECMP share evidence).
	ECNMarked  int               `json:"ecn_marked,omitempty"`
	TrunkDrops int               `json:"trunk_drops,omitempty"`
	Trunks     []hippi.TrunkStat `json:"trunks,omitempty"`

	Errors     int    `json:"errors"`
	FirstError string `json:"first_error,omitempty"`
	// Audit is the ledger's verdict on a bulk run with Scenario.Ledger
	// set: "ok", or the first flow's failure against its stack's Table 1
	// cells. Empty when the ledger was off.
	Audit string `json:"audit,omitempty"`
	// FaultReport summarizes fault-injector activity ("" when the
	// scenario ran clean).
	FaultReport string `json:"fault_report,omitempty"`
	OrderDigest string `json:"order_digest"`

	PerFlow []FlowReport `json:"per_flow,omitempty"`

	// NetObs is the transport-dynamics postmortem when Scenario.NetObs
	// was set, analyzed past the warmup cutoff.
	NetObs *netobs.Postmortem `json:"netobs,omitempty"`

	// Testbed is the run's testbed, whose recorder fields hold what
	// Scenario.Recorders attached (never marshaled).
	Testbed *core.Testbed `json:"-"`
}

// JSON renders the report with stable formatting.
func (r *Report) JSON() []byte {
	return obs.JSON(r)
}

// Jain computes Jain's fairness index (Σx)²/(n·Σx²) over xs; 1 is
// perfectly fair, 1/n is one flow taking everything.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

func round(x float64, digits int) float64 {
	p := math.Pow(10, float64(digits))
	return math.Round(x*p) / p
}

// perFlowLimit bounds the per-flow detail emitted in reports; large
// scenarios report aggregates only.
const perFlowLimit = 64

// report assembles the Report after the engine has drained.
func (r *runner) report() *Report {
	s := r.s
	rep := &Report{
		Name:    s.Name,
		Seed:    s.Seed,
		Flows:   len(r.flows),
		Mode:    "unmodified",
		Bulk:    s.Bulk,
		Arbiter: s.Arbiter != nil,
	}
	if s.Mode == socket.ModeSingleCopy {
		rep.Mode = "single_copy"
	}
	if s.Topology != "" {
		rep.Topology = s.Topology
		rep.CC = s.CC
		if rep.CC == "" {
			rep.CC = tcpip.CCReno
		}
		rep.ECNMarked = r.tb.Net.ECNMarked
		rep.TrunkDrops = r.tb.Net.DroppedFull
		rep.Trunks = r.tb.Net.TrunkStats()
	}
	if r.inj != nil {
		rep.FaultReport = r.inj.Report()
	}
	rep.Audit = r.auditCells()
	rep.VTimeSec = round(r.tb.Eng.Now().Seconds(), 9)
	window := r.tb.Eng.Now()
	if s.Bulk {
		window = s.Duration - s.Warmup
	} else if r.lastDelivery > 0 {
		window = r.lastDelivery
	}
	if window <= 0 {
		window = 1
	}
	rep.WindowSec = round(window.Seconds(), 9)

	// flowWindow is the flow's own measurement window: bulk flows with
	// staggered starts are measured over the part of [Warmup, Duration]
	// they were actually active for.
	flowWindow := func(f *flow) units.Time {
		if !s.Bulk {
			return window
		}
		from := s.Warmup
		if f.start > from {
			from = f.start
		}
		w := s.Duration - from
		if w <= 0 {
			w = units.Millisecond
		}
		return w
	}

	var goodputs, tcpGoodputs []float64
	for _, f := range r.flows {
		if f.udp {
			rep.UDPFlows++
		} else {
			rep.TCPFlows++
		}
		rep.TotalBytes += int64(f.bytes)
		rep.SentBytes += int64(f.sentBytes)
		rep.Requests += f.reqs
		rep.DgramsSent += f.dgramsSent
		rep.DgramsRcvd += f.dgramsRcvd
		rep.Errors += f.errs
		if rep.FirstError == "" {
			rep.FirstError = f.firstErr
		}
		g := float64(f.bytes) * 8 / flowWindow(f).Seconds() / 1e6
		goodputs = append(goodputs, g)
		if !f.udp {
			tcpGoodputs = append(tcpGoodputs, g)
		}
		if f.bytes == 0 {
			rep.Starved++
		}
	}

	sorted := append([]float64(nil), goodputs...)
	sort.Float64s(sorted)
	if n := len(sorted); n > 0 {
		var mean float64
		for _, g := range sorted {
			mean += g
		}
		rep.GoodputMinMbps = round(sorted[0], 3)
		rep.GoodputP50Mbps = round(sorted[(n-1)/2], 3)
		rep.GoodputMeanMbps = round(mean/float64(n), 3)
		rep.GoodputMaxMbps = round(sorted[n-1], 3)
	}
	if r.aggLat.Count() > 0 {
		rep.LatP50Us = round(float64(r.aggLat.Quantile(0.50))/float64(units.Microsecond), 2)
		rep.LatP99Us = round(float64(r.aggLat.Quantile(0.99))/float64(units.Microsecond), 2)
		rep.LatP999Us = round(float64(r.aggLat.Quantile(0.999))/float64(units.Microsecond), 2)
		snap := r.aggLat.Snapshot()
		rep.LatHist = &snap
	}

	// Fairness over TCP flows when present (the arbiter's subjects);
	// otherwise over all flows.
	fair := tcpGoodputs
	if len(fair) == 0 {
		fair = goodputs
	}
	rep.Jain = round(Jain(fair), 4)

	for _, h := range r.tb.Hosts {
		rep.ArbWaits += int64(h.CAB.Stats.ArbWaits)
		rep.ArbBorrows += int64(h.CAB.Stats.ArbBorrows)
		rep.ArbReclaims += int64(h.CAB.Stats.ArbReclaims)
		rep.ListenOverflows += int64(h.Stk.Stats.TCPListenOverflow)
		rep.Drops += int64(h.CAB.Stats.DropNoMem + h.CAB.Stats.DropNoBuf)
		rep.RxRetries += int64(h.CAB.Stats.RxRetries)
	}
	rep.Errors += r.frameErrs
	rep.OrderDigest = r.digest.hex()
	rep.Testbed = r.tb
	rep.NetObs = r.tb.NetObsPostmortem(s.Warmup)

	if len(r.flows) <= perFlowLimit {
		for _, f := range r.flows {
			fr := FlowReport{
				ID:          f.id,
				Proto:       "tcp",
				Port:        int(f.port),
				Bytes:       int64(f.bytes),
				Requests:    f.reqs,
				DgramsSent:  f.dgramsSent,
				DgramsRcvd:  f.dgramsRcvd,
				GoodputMbps: round(float64(f.bytes)*8/flowWindow(f).Seconds()/1e6, 3),
			}
			if f.udp {
				fr.Proto = "udp"
			}
			if f.lat.Count() > 0 {
				fr.LatP50Us = round(float64(f.lat.Quantile(0.50))/float64(units.Microsecond), 2)
				fr.LatP99Us = round(float64(f.lat.Quantile(0.99))/float64(units.Microsecond), 2)
			}
			rep.PerFlow = append(rep.PerFlow, fr)
		}
	}
	return rep
}
