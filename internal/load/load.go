// Package load is a deterministic many-flow workload engine for the
// testbed: it stands up an N-client × M-server topology on the HIPPI
// switch and drives hundreds to thousands of concurrent TCP and UDP flows
// through the real socket/Listen/Accept path, with open-loop (Poisson
// arrivals in virtual time) and closed-loop (think-time) request
// generators, heavy-tailed request/response size mixes, and bulk
// streaming. Every run produces a Report with per-flow goodput,
// request-latency quantiles, Jain's fairness index, and a starvation
// count, plus an order digest that makes event-ordering determinism
// checkable by string comparison.
//
// All randomness is drawn from per-flow PRNGs seeded from Scenario.Seed,
// so two runs of the same scenario are byte-identical.
package load

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cab"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/hippi"
	"repro/internal/kern"
	"repro/internal/obs"
	"repro/internal/obs/engine"
	"repro/internal/obs/ledger"
	"repro/internal/socket"
	"repro/internal/tcpip"
	"repro/internal/units"
	"repro/internal/wire"
)

// SizeClass is one entry of a request/response size mix. Frac values are
// normalized over the whole mix; a heavy-tailed workload is a few classes
// with small Frac and large sizes.
type SizeClass struct {
	Frac float64
	Req  units.Size
	Resp units.Size
}

// Scenario describes one many-flow run.
type Scenario struct {
	Name string
	Seed int64

	// Topology: Flows flows spread round-robin over Clients client hosts
	// and Servers server hosts.
	Clients int
	Servers int
	Flows   int
	// UDPFrac is the fraction of flows carried over UDP (one-way
	// datagram streams; the rest are TCP request/response or bulk).
	UDPFrac float64

	// Mode selects the stack variant on every host.
	Mode socket.Mode

	// Topology selects the switch fabric joining the hosts (fabric.Parse
	// grammar: single | linear:N | leafspine:LxS | fattree:LxS; "" is the
	// classic single switch). Servers rack behind edge switch 0; clients
	// spread round-robin over the remaining edge switches.
	Topology string
	// CC selects every host's TCP congestion control: "" or "reno" for
	// the classic 4.3BSD-Reno behavior, "dctcp" for the ECN variant.
	CC string
	// ECNThreshold enables fabric-side CE marking: a frame queued behind
	// this many bytes at a fabric hop is marked. Defaults to 32 KB when
	// CC is dctcp and a fabric is installed; 0 otherwise (no marking).
	ECNThreshold units.Size
	// QueueCap bounds each trunk direction's output queue (a switch's
	// per-port buffer): a frame arriving to more than this many bytes of
	// backlog is tail-dropped. 0 keeps trunks lossless (the default, and
	// the pre-fabric behavior).
	QueueCap units.Size

	// Bulk switches TCP flows from request/response to bulk streaming:
	// each flow writes BulkWrite-sized chunks until Duration of virtual
	// time has elapsed, and goodput is measured over [Warmup, Duration].
	// Warmup excludes the start-up transient — bytes delivered before the
	// shared resources reach steady state — from the measurement.
	Bulk      bool
	Duration  units.Time
	Warmup    units.Time
	BulkWrite units.Size

	// Request/response shape (ignored in bulk mode). OpenLoop generates
	// Poisson arrivals at Rate requests/second per flow; closed loop
	// issues Requests back-to-back with exponential think time of mean
	// Think between them.
	Requests int
	OpenLoop bool
	Rate     float64
	Think    units.Time
	Mix      []SizeClass

	// Window overrides the TCP socket buffer / offered window.
	Window units.Size
	// MTU overrides every host's network-layer MTU (0: the 32 KByte paper
	// default). Fabric congestion scenarios use a smaller MTU so DCTCP's
	// two-segment cwnd floor sits below a fair per-flow trunk share.
	MTU units.Size
	// UDPServerThink is per-datagram processing time at the UDP
	// receivers. A slow consumer's unread datagrams pile up outboard —
	// the monopoly scenario the netmem arbiter exists to contain (UDP has
	// no flow control to close a window).
	UDPServerThink units.Time
	// Stagger spreads flow start times uniformly over [0, Stagger).
	Stagger units.Time

	// CABConfig overrides every host's adaptor configuration (small
	// network memories create the contention the arbiter resolves).
	CABConfig *cab.Config
	// Arbiter, when set, installs the per-flow netmem arbiter on every
	// host.
	Arbiter *cab.ArbConfig
	// Ledger enables the data-touch ledger (used by audit-mode runs).
	Ledger bool
	// EngObs, when set, attaches the simulator meta-observer to the run's
	// engine (simbench measures engine work under many-flow load with it).
	EngObs *engine.Observer
	// CritPath enables the causal critical-path recorder on the run's
	// testbed; it comes back as Report.Crit for the critpath analyzer.
	CritPath bool
	// NetObs enables the transport-dynamics observatory; the postmortem
	// (analyzed after Warmup) comes back as Report.NetObs and the raw
	// recorder as Report.NetObsRec.
	NetObs bool
	// Series, when positive, samples the utilization time-series at this
	// interval; the sampler stops when the last client proc finishes and
	// the set comes back as Report.Series.
	Series units.Time
	// CheckPools runs the scenario with every free list in check mode (the
	// ownership harness; see core.Testbed.CheckPools).
	CheckPools bool
	// FaultPlan is an optional fault-injection plan (fault.ParsePlan
	// grammar, e.g. "partition:at=5ms,dur=20ms" or "cabreset:at=8ms")
	// applied to the run's shared network and every adaptor. The plan is
	// validated up front: a malformed spec fails the scenario before any
	// host exists.
	FaultPlan string
}

// normalized fills defaults and validates.
func (s Scenario) normalized() (Scenario, error) {
	if s.Name == "" {
		s.Name = "load"
	}
	if s.Clients <= 0 {
		s.Clients = 1
	}
	if s.Servers <= 0 {
		s.Servers = 1
	}
	if s.Flows <= 0 {
		s.Flows = 1
	}
	if s.BulkWrite <= 0 {
		s.BulkWrite = 32 * units.KB
	}
	if s.Bulk && s.Duration <= 0 {
		s.Duration = 20 * units.Millisecond
	}
	if !s.Bulk && s.Requests <= 0 {
		s.Requests = 4
	}
	if s.FaultPlan != "" {
		if _, err := fault.ParsePlan(s.FaultPlan); err != nil {
			return s, err
		}
	}
	if s.Topology != "" {
		if _, err := fabric.Parse(s.Topology); err != nil {
			return s, fmt.Errorf("load: %w", err)
		}
	}
	if !tcpip.ValidCC(s.CC) {
		return s, fmt.Errorf("load: bad CC %q (want reno|dctcp)", s.CC)
	}
	if s.ECNThreshold == 0 && s.CC == tcpip.CCDctcp && s.Topology != "" {
		s.ECNThreshold = 32 * units.KB
	}
	if s.OpenLoop && s.Rate <= 0 {
		s.Rate = 1000
	}
	if len(s.Mix) == 0 {
		s.Mix = []SizeClass{
			{Frac: 0.70, Req: 2 * units.KB, Resp: 8 * units.KB},
			{Frac: 0.25, Req: 4 * units.KB, Resp: 32 * units.KB},
			{Frac: 0.05, Req: 4 * units.KB, Resp: 128 * units.KB},
		}
	}
	if s.UDPFrac < 0 || s.UDPFrac > 1 {
		return s, fmt.Errorf("load: UDPFrac %v out of [0,1]", s.UDPFrac)
	}
	if s.Warmup < 0 || (s.Bulk && s.Warmup >= s.Duration) {
		return s, fmt.Errorf("load: Warmup %v outside [0, Duration)", s.Warmup)
	}
	for _, c := range s.Mix {
		if c.Req <= 0 || c.Resp < 0 || c.Frac < 0 {
			return s, fmt.Errorf("load: bad size class %+v", c)
		}
	}
	return s, nil
}

// maxSizes returns the largest request and response in the mix.
func (s Scenario) maxSizes() (req, resp units.Size) {
	for _, c := range s.Mix {
		req = max(req, c.Req)
		resp = max(resp, c.Resp)
	}
	return req, resp
}

// spaceNeed is what one flow allocates in its client's and its server's
// address space: the buffers runRRClient or runBulkClient, serveTCP and
// startUDPFlow carve, each padded for its 8-byte alignment. Spaces are
// sized to exactly this because their backing is live heap: idle slack
// raises the collector's goal, and with it how far touched garbage grows
// before a cycle, by an amount that varies with when the pacer fires.
// ttcp sizes its task spaces the same way (DESIGN §6).
func (s Scenario) spaceNeed(udp bool) (client, server units.Size) {
	maxReq, maxResp := s.maxSizes()
	if udp {
		pay := hdrLen + max(maxReq, s.BulkWrite) + 8
		return pay, pay
	}
	server = hdrLen + max(maxReq, 64*units.KB) + max(maxResp, hdrLen) + 3*8
	if s.Bulk {
		return hdrLen + s.BulkWrite + 2*8, server
	}
	return hdrLen + maxReq + max(maxResp, 16*units.KB) + 2*8, server
}

// pick draws a size class from the mix.
func pick(mix []SizeClass, rng *rand.Rand) SizeClass {
	var total float64
	for _, c := range mix {
		total += c.Frac
	}
	x := rng.Float64() * total
	for _, c := range mix {
		if x < c.Frac {
			return c
		}
		x -= c.Frac
	}
	return mix[len(mix)-1]
}

const (
	// tcpPort is every server host's TCP listen port.
	tcpPort = 5001
	// udpPortBase: UDP flow i's server socket binds udpPortBase+i.
	udpPortBase = 7000

	serverAddrBase = wire.Addr(0x0a000001)
	clientAddrBase = wire.Addr(0x0a010001)
)

// Run executes the scenario to completion and returns its report.
func Run(s Scenario) (*Report, error) {
	s, err := s.normalized()
	if err != nil {
		return nil, err
	}
	r := newRunner(s)
	r.build()
	r.start()
	r.tb.Eng.Run()
	r.tb.Eng.KillAll()
	return r.report(), nil
}

// runner holds one run's mutable state.
type runner struct {
	s       Scenario
	tb      *core.Testbed
	servers []*host
	clients []*host
	flows   []*flow
	digest  *orderDigest
	aggLat  *obs.Histogram
	// activeClients counts running client procs when the series sampler
	// is on; the last one out stops the sampler so the engine can drain.
	activeClients int
	inj           *fault.Injector
	frameErrs     int
	// lastDelivery is the virtual time of the last verified delivery; it
	// bounds the goodput window in request/response mode (the engine
	// drain time includes connection-teardown timers).
	lastDelivery units.Time
}

// delivered records one verified delivery event: it advances the
// measurement window and folds the event into the order digest.
func (r *runner) delivered(kind byte, flow, seq int, t units.Time) {
	if t > r.lastDelivery {
		r.lastDelivery = t
	}
	r.digest.note(kind, flow, seq, t)
}

// host pairs a testbed host with its workload task.
type host struct {
	h    *core.Host
	task *kern.Task
	lis  *tcpip.TCPListener
}

func newRunner(s Scenario) *runner {
	return &runner{s: s, digest: newOrderDigest(), aggLat: &obs.Histogram{}}
}

// build stands up the topology.
func (r *runner) build() {
	s := r.s
	r.tb = core.NewTestbed(s.Seed)
	if s.CheckPools {
		r.tb.CheckPools()
	}
	if s.Ledger {
		r.tb.EnableLedger()
	}
	if s.EngObs != nil {
		r.tb.EnableEngineObs(s.EngObs)
	}
	if s.CritPath {
		r.tb.EnableCritPath()
	}
	if s.NetObs {
		r.tb.EnableNetObs()
	}
	if s.Series > 0 {
		r.tb.EnableSeries(s.Series)
	}
	if s.FaultPlan != "" {
		inj := fault.New(r.tb.Eng, s.Seed)
		if err := inj.AddPlan(s.FaultPlan); err != nil {
			panic(err) // normalized() validated the plan already
		}
		r.inj = r.tb.EnableFaults(inj)
	}
	node := hippi.NodeID(1)
	addHost := func(name string, addr wire.Addr) *host {
		hc := core.HostConfig{
			Name:      name,
			Addr:      addr,
			Mode:      s.Mode,
			CABNode:   node,
			CABConfig: s.CABConfig,
			Arbiter:   s.Arbiter,
			CC:        s.CC,
			MTU:       s.MTU,
		}
		node++
		return &host{h: r.tb.AddHost(hc)}
	}
	for j := 0; j < s.Servers; j++ {
		r.servers = append(r.servers, addHost(fmt.Sprintf("S%d", j), serverAddrBase+wire.Addr(j)))
	}
	for j := 0; j < s.Clients; j++ {
		r.clients = append(r.clients, addHost(fmt.Sprintf("C%d", j), clientAddrBase+wire.Addr(j)))
	}
	for _, c := range r.clients {
		for _, sv := range r.servers {
			r.tb.RouteCAB(c.h, sv.h)
		}
	}

	// Fabric assembly: trunks, ECMP routing, rack placement, and (when
	// enabled) the CE marker and the trunk queue cap.
	if s.Topology != "" {
		tp := fabric.MustParse(s.Topology) // validated by normalized
		tp.Install(r.tb.Net, uint64(s.Seed))
		var srvNodes, cliNodes []hippi.NodeID
		for _, sv := range r.servers {
			srvNodes = append(srvNodes, sv.h.Cfg.CABNode)
		}
		for _, c := range r.clients {
			cliNodes = append(cliNodes, c.h.Cfg.CABNode)
		}
		r.tb.Net.SetPlacement(tp.PlaceRacked(srvNodes, cliNodes))
		if s.ECNThreshold > 0 {
			r.tb.Net.SetECN(s.ECNThreshold, fabric.MarkCE)
		}
		if s.QueueCap > 0 {
			r.tb.Net.SetQueueCap(s.QueueCap)
		}
	}

	// Flow table: flow i is UDP iff i < udpCount; hosts round-robin.
	udpCount := int(math.Round(s.UDPFrac * float64(s.Flows)))
	for i := 0; i < s.Flows; i++ {
		f := &flow{
			id:     i,
			udp:    i < udpCount,
			client: r.clients[i%s.Clients],
			server: r.servers[i%s.Servers],
			rng:    rand.New(rand.NewSource(s.Seed*1000003 + int64(i))),
			lat:    &obs.Histogram{},
		}
		r.flows = append(r.flows, f)
	}

	// One task per host; space sized for that host's flow buffers.
	for _, hosts := range [][]*host{r.servers, r.clients} {
		for _, h := range hosts {
			var size units.Size
			for _, f := range r.flows {
				cli, srv := s.spaceNeed(f.udp)
				if f.client == h {
					size += cli
				}
				if f.server == h {
					size += srv
				}
			}
			page := h.h.K.Mach.PageSize
			size = max(page, (size+page-1)/page*page) // a flowless host still gets a space
			h.task = h.h.NewUserTask("load", size)
		}
	}

	// TCP listeners: backlog covers a full connection storm.
	tcpFlows := make(map[*host]int)
	for _, f := range r.flows {
		if !f.udp {
			tcpFlows[f.server]++
		}
	}
	for _, sv := range r.servers {
		if n := tcpFlows[sv]; n > 0 {
			sv.lis = sv.h.Stk.ListenBacklog(tcpPort, n+8)
		}
	}
}

// clientDone retires one client proc; the last one out stops the series
// sampler (which otherwise keeps an engine event pending forever).
func (r *runner) clientDone() {
	if r.s.Series <= 0 {
		return
	}
	r.activeClients--
	if r.activeClients == 0 {
		r.tb.StopSeries()
	}
}

// start spawns every flow's procs.
func (r *runner) start() {
	r.activeClients = len(r.flows)
	for _, sv := range r.servers {
		if sv.lis != nil {
			r.startAcceptLoop(sv)
		}
	}
	for _, f := range r.flows {
		if f.udp {
			r.startUDPFlow(f)
		} else {
			r.startTCPClient(f)
		}
	}
}

// startDelay is the flow's deterministic start jitter.
func (r *runner) startDelay(f *flow) units.Time {
	if r.s.Stagger <= 0 {
		return 0
	}
	return units.Time(f.rng.Int63n(int64(r.s.Stagger)))
}

// auditSingleCopy checks every TCP bulk stream against the ledger's
// single-copy oracle: each delivered byte crossed each host bus exactly
// once by DMA with the checksum computed in flight, and no CPU ever
// copied or checksummed payload. Loose mode grants the documented
// retransmission allowance — congested fabrics drop and retransmit, and
// a retransmitted byte legitimately recrosses the sender's bus. Returns
// "" when the ledger was off (or the run has no audited flows), "ok"
// when every flow passed, else the first failure.
func (r *runner) auditSingleCopy() string {
	led := r.tb.Led
	if led == nil || !r.s.Bulk || r.s.Mode != socket.ModeSingleCopy {
		return ""
	}
	audited := false
	for _, f := range r.flows {
		if f.udp || f.port == 0 || f.streamed == 0 {
			continue
		}
		audited = true
		if err := led.AssertSingleCopy(ledger.AuditConfig{
			Flow:    int(f.port),
			Total:   hdrLen + f.streamed,
			SndHost: f.client.h.Name,
			RcvHost: f.server.h.Name,
		}); err != nil {
			return fmt.Sprintf("flow %d: %v", f.id, err)
		}
	}
	if !audited {
		return ""
	}
	return "ok"
}
