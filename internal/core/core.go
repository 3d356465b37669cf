// Package core assembles complete simulated hosts — kernel, VM, protocol
// stack, CAB adaptor and driver, optional legacy Ethernet and loopback
// devices — into a testbed, and is the primary entry point for running the
// paper's configurations: the unmodified stack versus the single-copy
// stack over the Gigabit Nectar CAB (Figure 2).
package core

import (
	"cmp"
	"encoding/json"
	"fmt"

	"repro/internal/cab"
	"repro/internal/cabdrv"
	"repro/internal/cost"
	"repro/internal/ethdev"
	"repro/internal/fault"
	"repro/internal/hippi"
	"repro/internal/kern"
	"repro/internal/loop"
	"repro/internal/mem"
	"repro/internal/netif"
	"repro/internal/obs"
	"repro/internal/obs/engine"
	"repro/internal/obs/ledger"
	"repro/internal/obs/netobs"
	"repro/internal/obs/prof"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/tcpip"
	"repro/internal/units"
	"repro/internal/wire"
)

// HostConfig describes one host to add to a testbed.
type HostConfig struct {
	Name string
	Addr wire.Addr
	// Mach is the cost model; nil defaults to the Alpha 3000/400.
	Mach *cost.Machine
	// Mode selects the stack variant.
	Mode socket.Mode
	// CABNode is the host's HIPPI switch port.
	CABNode hippi.NodeID
	// CABConfig overrides the adaptor configuration (zero value: default).
	CABConfig *cab.Config
	// Arbiter, if set, installs a per-flow netmem arbiter on the host's
	// CAB with this configuration (zero value: arbiter defaults). Nil
	// keeps the seed first-come global allocation policy.
	Arbiter *cab.ArbConfig
	// NoDriver attaches the CAB hardware without the protocol driver
	// (raw-HIPPI measurement harnesses drive the adaptor directly).
	NoDriver bool
	// EthNode, if non-zero, also attaches a legacy Ethernet-class device
	// at that station id on the testbed's legacy medium.
	EthNode hippi.NodeID
	// Loopback attaches a loopback interface.
	Loopback bool
	// LazyUnpin enables the pinned-buffer reuse cache (Section 4.4.1
	// extension).
	LazyUnpin bool
	// CC selects the host's TCP congestion-control policy: "" or "reno"
	// for the classic 4.3BSD-Reno behavior, "dctcp" for the ECN-reacting
	// variant (needs a fabric with CE marking enabled to differ).
	CC string
	// MTU overrides the CAB interface's network-layer MTU (0: the default
	// 32 KByte paper MTU). Fabric scenarios use a smaller MTU so DCTCP's
	// two-segment cwnd floor sits below a fair per-flow share.
	MTU units.Size
}

// Host is one assembled host.
type Host struct {
	Name string
	Cfg  HostConfig
	K    *kern.Kernel
	VM   *kern.VM
	Stk  *tcpip.Stack
	CAB  *cab.CAB
	Drv  *cabdrv.Driver
	Eth  *ethdev.Driver
	Lo   *loop.Loopback
}

// Testbed is a set of hosts joined by a HIPPI switch (and optionally a
// slower legacy medium).
type Testbed struct {
	Eng    *sim.Engine
	Net    *hippi.Network
	EthNet *hippi.Network
	Hosts  []*Host
	// The recorders Record attached; each is nil while off.
	Tel    *obs.Telemetry
	Prof   *prof.Profiler
	Series *obs.SeriesSet
	Led    *ledger.Ledger
	EngObs *engine.Observer
	NetObs *netobs.Recorder
	// FaultInj is the fault injector; nil unless EnableFaults was called
	// before hosts were added.
	FaultInj *fault.Injector

	seriesStop bool
	checkPools bool
}

// EthRate is the legacy medium's line rate (FDDI-class, so the legacy
// device rather than the wire dominates in interop tests).
const EthRate = 100 * units.Mbps

// NewTestbed creates an empty testbed with a HIPPI switch.
func NewTestbed(seed int64) *Testbed {
	eng := sim.NewEngine(seed)
	return &Testbed{
		Eng:    eng,
		Net:    hippi.NewNetwork(eng, hippi.LineRate, 5*units.Microsecond),
		EthNet: hippi.NewNetwork(eng, EthRate, 50*units.Microsecond),
	}
}

// DefaultSeriesInterval is the utilization sampler's interval when a
// caller asks for the series without naming one.
const DefaultSeriesInterval = 100 * units.Microsecond

// Recorders names the recorders a run attaches to its testbed. The zero
// value records nothing. Every recorder is purely observational: turning
// one on charges no simulated time and moves no workload event (the series
// sampler only adds its own ticks), so a run's results are the same
// whatever set it records.
type Recorders struct {
	// Telemetry: per-host metric registries and data-path spans (Tel).
	Telemetry bool
	// CritPath: the causal critical-path recorder (Tel.Crit): data-path
	// spans record happens-before events (writer enqueue, tcp_output,
	// SDMA, wire, interrupt, read wakeup) with stall-cause edges for the
	// internal/obs/critpath analyzer. Implies Telemetry.
	CritPath bool
	// Profile: the virtual-time CPU profiler (Prof): every kernel CPU
	// charge is attributed to a (host, layer-stack, category, flow) node,
	// exactly, with no sampling.
	Profile bool
	// Ledger: the data-touch ledger (Led): every event where a payload
	// byte is read or written (CPU copy, CPU checksum, host-bus DMA, media
	// DMA, wire transit) becomes an interval record for the post-run audit.
	Ledger bool
	// NetObs: the transport-dynamics recorder (NetObs): per-connection TCP
	// congestion state sampled on change and per-port wire busy/stall
	// telemetry, joined with adaptor-memory stats by NetObsPostmortem.
	NetObs bool
	// Series, when positive, samples each host's utilization series
	// (Series) every Series of virtual time: CPU utilization in total and
	// per category, network-memory occupancy, TCP queue and window peaks.
	// Implies Telemetry. The sampler keeps an engine event pending, so
	// call StopSeries when the workload ends or Eng.Run will not return.
	Series units.Time
	// EngObs, when set, is attached as the simulator meta-observer
	// (EngObs): the engine counts its own real work (events per kind,
	// queue and timer high-waters, advisory wall-clock and allocation
	// attribution) and every kernel counts its charges. One observer may
	// accumulate across several testbeds.
	EngObs *engine.Observer
}

// Union returns the set that records everything r or o records. Where
// both name a series interval or an observer, r's wins.
func (r Recorders) Union(o Recorders) Recorders {
	r.Telemetry = r.Telemetry || o.Telemetry
	r.CritPath = r.CritPath || o.CritPath
	r.Profile = r.Profile || o.Profile
	r.Ledger = r.Ledger || o.Ledger
	r.NetObs = r.NetObs || o.NetObs
	r.Series = cmp.Or(r.Series, o.Series)
	r.EngObs = cmp.Or(r.EngObs, o.EngObs)
	return r
}

// Record attaches every recorder r names to the testbed and its networks,
// and to each host as AddHost builds it, so it must run before AddHost. It
// adds to what earlier calls attached and keeps their recorders: a
// repeated call changes nothing, and a series already sampling keeps its
// interval. A different EngObs replaces the attached one. Record is the
// only code that creates a recorder; Testbed's recorder fields read them.
//
// Call Record before EnableFaults: the series sampler's start event then
// takes its sequence number ahead of any fault event.
func (tb *Testbed) Record(r Recorders) *Testbed {
	if len(tb.Hosts) > 0 {
		panic("core: Record must be called before AddHost")
	}
	// The observer goes first so that it sees the sampler's start event
	// scheduled.
	if r.EngObs != nil && r.EngObs != tb.EngObs {
		tb.EngObs = r.EngObs
		r.EngObs.Attach(tb.Eng)
	}
	if (r.Telemetry || r.CritPath || r.Series > 0) && tb.Tel == nil {
		tb.Tel = obs.New(tb.Eng.Now)
		reg := tb.Tel.Registry("net")
		tb.Net.SetObs(reg, "hippi")
		tb.EthNet.SetObs(reg, "eth")
	}
	if r.CritPath {
		tb.Tel.Trace().EnableCrit()
	}
	if r.Ledger && tb.Led == nil {
		tb.Led = ledger.New(tb.Eng.Now)
		wireHook := tb.Led.Hook("wire")
		tb.Net.Led = wireHook
		tb.EthNet.Led = wireHook
	}
	if r.Profile && tb.Prof == nil {
		tb.Prof = prof.New(kern.CategoryNames())
	}
	if r.NetObs && tb.NetObs == nil {
		tb.NetObs = netobs.New(tb.Eng.Now)
		tb.Net.SetNetObs(tb.NetObs.Wire("hippi", 0))
		tb.EthNet.SetNetObs(tb.NetObs.Wire("eth", 0))
	}
	if interval := r.Series; interval > 0 && tb.Series == nil {
		tb.Series = obs.NewSeriesSet(interval, obs.DefaultSeriesCapacity)
		tb.Series.SetLatencySource(tb.Tel.Trace().Latency())
		// The sampler blocks only between its own ticks, so it is an
		// event-loop continuation (DESIGN §11), not a process: a start
		// event where a process's first wake-up would be, then one
		// KindProc event per tick at its wake-up's slot, so every event
		// keeps its time, kind and sequence number.
		var tick func()
		next := func() {
			if !tb.seriesStop {
				tb.Eng.AfterKind(interval, sim.KindProc, tick)
			}
		}
		tick = func() {
			tb.Series.Sample(tb.Eng.Now())
			next()
		}
		tb.Eng.AtKind(tb.Eng.Now(), sim.KindProc, next)
	}
	return tb
}

// The Enable methods are one-recorder forms of Record, kept for callers
// outside this module; code here calls Record.

// EnableTelemetry is Record(Recorders{Telemetry: true}).
func (tb *Testbed) EnableTelemetry() *obs.Telemetry { return tb.Record(Recorders{Telemetry: true}).Tel }

// EnableCritPath is Record(Recorders{CritPath: true}).
func (tb *Testbed) EnableCritPath() *obs.CritRec {
	return tb.Record(Recorders{CritPath: true}).Tel.Crit()
}

// EnableProfiling is Record(Recorders{Profile: true}).
func (tb *Testbed) EnableProfiling() *prof.Profiler { return tb.Record(Recorders{Profile: true}).Prof }

// EnableSeries is Record(Recorders{Series: interval}); a non-positive
// interval samples every DefaultSeriesInterval.
func (tb *Testbed) EnableSeries(interval units.Time) *obs.SeriesSet {
	return tb.Record(Recorders{Series: cmp.Or(max(interval, 0), DefaultSeriesInterval)}).Series
}

// EnableNetObs is Record(Recorders{NetObs: true}).
func (tb *Testbed) EnableNetObs() *netobs.Recorder { return tb.Record(Recorders{NetObs: true}).NetObs }

// EnableLedger is Record(Recorders{Ledger: true}).
func (tb *Testbed) EnableLedger() *ledger.Ledger { return tb.Record(Recorders{Ledger: true}).Led }

// EnableEngineObs is Record(Recorders{EngObs: o}).
func (tb *Testbed) EnableEngineObs(o *engine.Observer) *engine.Observer {
	return tb.Record(Recorders{EngObs: o}).EngObs
}

// NetObsPostmortem runs the transport-dynamics analyzer over everything the
// recorder saw, joining each flow's series with the wire telemetry and the
// receiving host's adaptor-memory stats. after excludes warmup events from
// the verdict rules. Returns nil when netobs is disabled.
func (tb *Testbed) NetObsPostmortem(after units.Time) *netobs.Postmortem {
	if tb.NetObs == nil {
		return nil
	}
	mem := make([]netobs.HostMem, 0, len(tb.Hosts))
	for _, h := range tb.Hosts {
		st := &h.CAB.Stats
		mem = append(mem, netobs.HostMem{
			Host:        h.Name,
			Node:        int(h.Cfg.CABNode),
			DropNoMem:   int64(st.DropNoMem),
			DropNoBuf:   int64(st.DropNoBuf),
			RxRetries:   int64(st.RxRetries),
			ArbWaits:    int64(st.ArbWaits),
			ArbBorrows:  int64(st.ArbBorrows),
			ArbReclaims: int64(st.ArbReclaims),
		})
	}
	return tb.NetObs.Analyze(mem, netobs.Options{After: after})
}

// StopSeries retires the sampler: it takes one final row at the next tick
// and schedules no more, letting Eng.Run drain. Harmless when series are
// disabled.
func (tb *Testbed) StopSeries() { tb.seriesStop = true }

// FlightDump serializes each host's recent ledger events, the tail of the
// telemetry trace, and the per-kind fault-injector counters into one JSON
// document — the flight recorder image dumped when a watchdog or fault
// oracle fires. The fault section tells a reader of a wedged-run dump
// which injections had actually fired by the time the watchdog gave up.
func (tb *Testbed) FlightDump() []byte {
	var led, trace, faults []byte
	if tb.Led != nil {
		led = tb.Led.FlightDump()
	}
	if tb.Tel != nil {
		trace = tb.Tel.ChromeTail(256)
	}
	if tb.FaultInj != nil {
		faults, _ = json.Marshal(tb.FaultInj.FiredMap())
	}
	out := append([]byte(`{"ledger":`), orNull(led)...)
	out = append(out, `,"trace":`...)
	out = append(out, orNull(trace)...)
	out = append(out, `,"faults":`...)
	out = append(out, orNull(faults)...)
	return append(out, '}')
}

func orNull(b []byte) []byte {
	if len(b) == 0 {
		return []byte("null")
	}
	return b
}

// CheckPools puts every free list of the testbed in check mode (see
// internal/pool): the networks' at once, each host's as AddHost builds it.
// Released objects are then poisoned and never reused, so a use after
// release fails where it happens and a double release panics. Tests only;
// must run before AddHost.
func (tb *Testbed) CheckPools() {
	if len(tb.Hosts) > 0 {
		panic("core: CheckPools must be called before AddHost")
	}
	tb.checkPools = true
	tb.Net.CheckPools()
	tb.EthNet.CheckPools()
}

// EnableFaults installs a fault injector on every fabric and every host
// added afterwards: the wire surfaces immediately, the CAB and kernel
// surfaces as each host is assembled. Add the plan's rules to inj before
// calling. Must run before AddHost.
func (tb *Testbed) EnableFaults(inj *fault.Injector) *fault.Injector {
	if len(tb.Hosts) > 0 {
		panic("core: EnableFaults must be called before AddHost")
	}
	tb.FaultInj = inj
	inj.WireNet(tb.Net)
	inj.WireNet(tb.EthNet)
	tb.Net.SetLinkInjector(inj)
	if tb.Tel != nil {
		inj.SetObs(tb.Tel.Registry("net"), tb.Tel.Trace())
	}
	return inj
}

// AddHost assembles a host and joins it to the testbed fabrics.
func (tb *Testbed) AddHost(cfg HostConfig) *Host {
	if cfg.Mach == nil {
		cfg.Mach = cost.Alpha400()
	}
	h := &Host{Name: cfg.Name, Cfg: cfg}
	h.K = kern.New(cfg.Name, tb.Eng, cfg.Mach)
	if tb.Tel != nil {
		h.K.Obs = tb.Tel.Registry(cfg.Name)
		h.K.RegisterObs()
	}
	if tb.Prof != nil {
		h.K.Prof = tb.Prof.Host(cfg.Name)
	}
	if tb.Led != nil {
		h.K.Led = tb.Led.Hook(cfg.Name)
	}
	h.K.EngObs = tb.EngObs
	h.VM = kern.NewVM(h.K)
	h.VM.LazyUnpin = cfg.LazyUnpin
	h.Stk = tcpip.NewStack(h.K, cfg.Addr)
	h.Stk.CC = cfg.CC
	if tb.NetObs != nil {
		h.Stk.SetNetObs(tb.NetObs, int(cfg.CABNode))
	}

	cabCfg := cab.DefaultConfig()
	if cfg.CABConfig != nil {
		cabCfg = *cfg.CABConfig
	}
	h.CAB = cab.New(tb.Eng, cfg.Mach, tb.Net, cfg.CABNode, cabCfg)
	h.CAB.SetObs(h.K.Obs)
	h.CAB.Led = h.K.Led
	h.CAB.Host = cfg.Name
	if cfg.Arbiter != nil {
		cab.NewArbiter(h.CAB, *cfg.Arbiter)
	}
	if tb.FaultInj != nil {
		tb.FaultInj.WireCAB(h.CAB)
		tb.FaultInj.WireKernel(h.K)
	}
	if !cfg.NoDriver {
		h.Drv = cabdrv.New("cab0", h.K, h.CAB, cfg.Mode == socket.ModeSingleCopy)
		h.Drv.Input = h.Stk.Input
		h.Drv.ResetNotify = h.Stk.DeviceReset
		if cfg.MTU > 0 {
			h.Drv.SetMTU(cfg.MTU)
		}
	}
	if cfg.EthNode != 0 {
		h.Eth = ethdev.New("en0", h.K, tb.EthNet, cfg.EthNode, 0)
		h.Eth.Input = h.Stk.Input
	}
	if cfg.Loopback {
		h.Lo = loop.New(h.K)
		h.Lo.Input = h.Stk.Input
		h.Stk.Routes.AddHost(cfg.Addr, h.Lo, 0)
	}
	if tb.Series != nil {
		tb.registerSeries(h)
	}
	if tb.checkPools {
		h.K.Mbufs.Check()
		h.Stk.CheckPools()
		h.CAB.CheckPools()
		if h.Drv != nil {
			h.Drv.CheckPools()
		}
	}
	tb.Hosts = append(tb.Hosts, h)
	return h
}

// registerSeries wires the host's utilization columns. Gauge columns
// share instruments with the subsystems that set them via the registry's
// name interning.
func (tb *Testbed) registerSeries(h *Host) {
	s := tb.Series.Series(h.Name)
	k := h.K
	s.UtilPerMille("cpu.util_pm", func() int64 { return int64(k.BusyTime()) })
	for i, name := range kern.CategoryNames() {
		c := kern.Category(i)
		s.UtilPerMille("cpu."+name+"_pm", func() int64 { return int64(k.CategoryTime(c)) })
	}
	pages := h.K.Obs.Gauge("cab.netmem_pages")
	s.Level("cab.netmem_pages", pages.Value)
	s.Peak("cab.netmem_pages_peak", pages)
	s.Peak("tcp.snd_q_peak", h.K.Obs.Gauge("tcp.snd_q"))
	s.Peak("tcp.rcv_q_peak", h.K.Obs.Gauge("tcp.rcv_q"))
	s.Peak("tcp.snd_wnd_peak", h.K.Obs.Gauge("tcp.snd_wnd"))
}

// Snapshot returns the host's current metric values (empty when telemetry
// is disabled).
func (h *Host) Snapshot() obs.HostMetrics {
	if h.K.Obs == nil {
		return obs.HostMetrics{Host: h.Name}
	}
	return h.K.Obs.Snapshot()
}

// RouteCAB installs host routes in both directions between a and b over
// the HIPPI fabric.
func (tb *Testbed) RouteCAB(a, b *Host) {
	if a.Drv == nil || b.Drv == nil {
		panic("core: RouteCAB requires CAB drivers on both hosts")
	}
	a.Stk.Routes.AddHost(b.Cfg.Addr, a.Drv, netif.LinkAddr(b.Cfg.CABNode))
	b.Stk.Routes.AddHost(a.Cfg.Addr, b.Drv, netif.LinkAddr(a.Cfg.CABNode))
}

// RouteEth installs host routes between a and b over the legacy medium.
func (tb *Testbed) RouteEth(a, b *Host) {
	if a.Eth == nil || b.Eth == nil {
		panic("core: RouteEth requires Ethernet devices on both hosts")
	}
	a.Stk.Routes.AddHost(b.Cfg.Addr, a.Eth, netif.LinkAddr(b.Cfg.EthNode))
	b.Stk.Routes.AddHost(a.Cfg.Addr, b.Eth, netif.LinkAddr(a.Cfg.EthNode))
}

// NewUserTask creates a user task on the host with its own address space.
func (h *Host) NewUserTask(name string, spaceSize units.Size) *kern.Task {
	if spaceSize <= 0 {
		spaceSize = 8 * units.MB
	}
	space := mem.NewAddrSpace(fmt.Sprintf("%s/%s", h.Name, name),
		spaceSize, h.K.Mach.PageSize)
	return h.K.NewTask(name, kern.PrioUser, space)
}

// SocketConfig returns the socket configuration matching the host's stack
// variant.
func (h *Host) SocketConfig() socket.Config {
	return socket.Config{Mode: h.Cfg.Mode}
}

// Dial opens a stream socket from task on h to raddr:rport.
func (h *Host) Dial(p *sim.Proc, task *kern.Task, raddr wire.Addr, rport uint16) (*socket.Socket, error) {
	return socket.Dial(p, h.K, h.VM, task, h.Stk, raddr, rport, h.SocketConfig())
}

// Accept wraps a listener accept with the host's socket configuration.
func (h *Host) Accept(p *sim.Proc, task *kern.Task, l *tcpip.TCPListener) *socket.Socket {
	return socket.Accept(p, h.K, h.VM, task, l, h.SocketConfig())
}
