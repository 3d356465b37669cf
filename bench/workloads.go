package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cab"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/load"
	"repro/internal/obs/engine"
	"repro/internal/obs/ledger"
	"repro/internal/socket"
	"repro/internal/ttcp"
	"repro/internal/units"
	"repro/internal/wire"
)

// A workload is one seeded scenario driven through the simulator's public
// entry points. One repetition builds it, runs it to completion in
// virtual time and checks what came out.
type workload struct {
	name string
	why  string
	// gen makes the repetition's inputs from the run seed. tiny selects
	// the smoke-test size.
	gen func(seed int64, tiny bool) inputs
}

// inputs is everything a repetition receives; exactly one of bulk and
// scen is set.
type inputs struct {
	bulk *bulkInputs
	scen *load.Scenario
}

type bulkInputs struct {
	seed      int64
	mode      socket.Mode
	total     units.Size
	recorders bool
	// paperEff is the paper's §7.3 sender efficiency for this mode in
	// Mb/s, the reference the fidelity figure is taken against.
	paperEff float64
}

// probes is what a traced repetition attaches; the zero value is the
// untraced repetition.
type probes struct {
	tr  *tracer
	obs *engine.Observer
	// vprof turns on the virtual-time profiler on bulk workloads.
	vprof bool
}

// outcome is one repetition's checked result.
type outcome struct {
	attempted int
	failed    int
	errs      []string
	// virt is every virtual-time result that must repeat exactly across
	// the repetitions of one run, rendered as one comparable string.
	virt string
	// layer holds the model.* values and the layer counts the workload's
	// public surface exposes; absent names are reported as 0 (n/a).
	layer map[string]float64
}

func (o *outcome) fail(format string, a ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, a...))
}

// finish settles the failed count: at least one failed operation when any
// check tripped, never more than were attempted.
func (o *outcome) finish() {
	if len(o.errs) > 0 && o.failed == 0 {
		o.failed = 1
	}
	if o.failed > o.attempted {
		o.failed = o.attempted
	}
}

const (
	addrA = wire.Addr(0x0a000001)
	addrB = wire.Addr(0x0a000002)

	bulkRW = 64 * units.KB
)

var workloads = []workload{
	{
		name: "bulk_single",
		why:  "The paper's headline single-copy transfer (128 MB, 64 KB writes): 96% of events are proc wake-ups on a shallow heap, so sim/kern hand-off cost shows here.",
		gen: func(seed int64, tiny bool) inputs {
			return inputs{bulk: &bulkInputs{seed: seed, mode: socket.ModeSingleCopy, total: bulkTotal(tiny), paperEff: 490}}
		},
	},
	{
		name: "bulk_unmod",
		why:  "Same transfer on the unmodified stack: real CPU copies and software checksums, 2.2x the allocated bytes; a single-copy gain must not cost this path, and mbuf pooling shows here.",
		gen: func(seed int64, tiny bool) inputs {
			return inputs{bulk: &bulkInputs{seed: seed, mode: socket.ModeUnmodified, total: bulkTotal(tiny), paperEff: 180}}
		},
	},
	{
		name: "load_1024",
		why:  "1024 open-loop request/response flows over 8x4 hosts: event heap ~3.5k deep, timers, 1024 listen/accept/teardown cycles, ~700 MB allocated; event-heap and per-connection changes show here.",
		gen: func(seed int64, tiny bool) inputs {
			s := load.Scenario{
				Name:     "load_1024",
				Seed:     8 + seed,
				Clients:  8,
				Servers:  4,
				Flows:    1024,
				UDPFrac:  0.25,
				Mode:     socket.ModeSingleCopy,
				Requests: 2,
				OpenLoop: true,
				Rate:     2000,
				Stagger:  units.Millisecond,
				Arbiter:  &cab.ArbConfig{},
			}
			if tiny {
				s.Flows = 32
			}
			return inputs{scen: &s}
		},
	},
	{
		name: "fabric_incast",
		why:  "64 bulk flows across a leaf-spine fabric into one capped trunk: multi-hop wire events, tail drops, fast retransmit and RTO timers, ECMP; the only workload that leaves the fast path.",
		gen: func(seed int64, tiny bool) inputs {
			s := load.Scenario{
				Name:      "fabric_incast",
				Seed:      6 + seed,
				Clients:   8,
				Servers:   8,
				Flows:     64,
				Mode:      socket.ModeSingleCopy,
				Topology:  "leafspine:4x1",
				QueueCap:  256 * units.KB,
				Bulk:      true,
				Duration:  1500 * units.Millisecond,
				Warmup:    50 * units.Millisecond,
				BulkWrite: 16 * units.KB,
				Window:    128 * units.KB,
				MTU:       8*units.KB + 64,
				CABConfig: &cab.Config{
					MemSize:    1024 * units.KB,
					PageSize:   8 * units.KB,
					AutoDMALen: 784,
					RxCsumSkip: 80,
					Channels:   8,
				},
			}
			if tiny {
				s.Flows = 32
				s.Duration = 60 * units.Millisecond
				s.Warmup = 10 * units.Millisecond
			}
			return inputs{scen: &s}
		},
	},
	{
		name: "bulk_recorders",
		why:  "bulk_single with every recorder on (telemetry, critpath, profiler, ledger, netobs, series): internal/obs is the extra ~45% of wall time, the before/after for instrumentation work.",
		gen: func(seed int64, tiny bool) inputs {
			return inputs{bulk: &bulkInputs{seed: seed, mode: socket.ModeSingleCopy, total: bulkTotal(tiny), recorders: true, paperEff: 490}}
		},
	},
}

func bulkTotal(tiny bool) units.Size {
	if tiny {
		return units.MB
	}
	return 128 * units.MB
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// repeat runs one repetition of the inputs. build and run are the timed
// part, reported through timed; verify is the benchmark's own work.
func repeat(in inputs, pr probes, timed func(f func())) outcome {
	if in.bulk != nil {
		return repeatBulk(*in.bulk, pr, timed)
	}
	return repeatLoad(*in.scen, pr, timed)
}

func repeatBulk(in bulkInputs, pr probes, timed func(f func())) outcome {
	var (
		tb   *core.Testbed
		a, b *core.Host
		led  *ledger.Ledger
		res  ttcp.Result
	)
	timed(func() {
		sp := pr.tr.begin("build")
		tb = core.NewTestbed(in.seed)
		if in.recorders {
			tb.EnableTelemetry()
			tb.EnableCritPath()
			tb.EnableProfiling()
			led = tb.EnableLedger()
			tb.EnableNetObs()
			tb.EnableSeries(0)
		}
		if pr.obs != nil {
			tb.EnableEngineObs(pr.obs)
		}
		if pr.vprof {
			tb.EnableProfiling()
		}
		a = tb.AddHost(core.HostConfig{Name: "A", Addr: addrA, Mach: cost.Alpha400(), Mode: in.mode, CABNode: 1})
		b = tb.AddHost(core.HostConfig{Name: "B", Addr: addrB, Mach: cost.Alpha400(), Mode: in.mode, CABNode: 2})
		tb.RouteCAB(a, b)
		pr.tr.end(sp)

		sp = pr.tr.begin("run")
		// Tolerant turns an incomplete transfer into a result the checks
		// below count as a failure; on a clean run it changes nothing.
		res = ttcp.Run(tb, a, b, ttcp.Params{
			Total: in.total, RWSize: bulkRW,
			WithUtil: true, WithBackground: true, Tolerant: true,
		})
		pr.tr.end(sp)
	})

	sp := pr.tr.begin("verify")
	defer pr.tr.end(sp)
	out := outcome{attempted: 1, layer: map[string]float64{}}
	if res.Bytes != in.total {
		out.fail("delivered %d bytes, want %d", res.Bytes, in.total)
	}
	if res.SndErr != "" || res.RcvErr != "" {
		out.fail("transfer errors: snd %q rcv %q", res.SndErr, res.RcvErr)
	}
	if led != nil {
		if err := led.AssertSingleCopy(ledger.AuditConfig{
			Flow: led.MainFlow(), Total: in.total, SndHost: "A", RcvHost: "B", Strict: true,
		}); err != nil {
			out.fail("single-copy audit: %v", err)
		}
	}
	effMbps := res.Snd.Efficiency.Mbit()
	out.virt = fmt.Sprintf("vns=%d bytes=%d thr=%v sndutil=%v rcvutil=%v sndeff=%v rcveff=%v",
		int64(tb.Eng.Now()), int64(res.Bytes), float64(res.Throughput), res.Snd.Utilization,
		res.Rcv.Utilization, float64(res.Snd.Efficiency), float64(res.Rcv.Efficiency))

	l := out.layer
	l["model.v_ns"] = float64(tb.Eng.Now())
	l["model.v_goodput_mbps"] = res.Throughput.Mbit()
	l["model.v_snd_util"] = res.Snd.Utilization
	l["model.v_snd_eff_mbps"] = effMbps
	l["model.v_eff_err_pct"] = math.Abs(effMbps-in.paperEff) / in.paperEff * 100
	for _, h := range []*core.Host{a, b} {
		st, cs := &h.Stk.Stats, &h.CAB.Stats
		l["tcpip.segs_out"] += float64(st.TCPSegsOut)
		l["tcpip.retransmits"] += float64(st.TCPRetransmits)
		l["tcpip.fast_retransmits"] += float64(st.TCPFastRetransmits)
		l["tcpip.hw_csum_verified"] += float64(st.HWCsumVerified)
		l["tcpip.sw_csum_verified"] += float64(st.SWCsumVerified)
		l["cab.sdma_ops"] += float64(cs.SDMAOps)
		l["cab.sdma_bytes"] += float64(cs.SDMABytes)
		l["cab.rx_retries"] += float64(cs.RxRetries)
		l["cab.drops"] += float64(cs.DropNoMem + cs.DropNoBuf)
		l["cab.arb_waits"] += float64(cs.ArbWaits)
	}
	l["hippi.frames_sent"] = float64(tb.Net.Sent)
	l["hippi.frames_dropped"] = float64(tb.Net.Dropped)
	l["fabric.trunk_drops"] = float64(tb.Net.DroppedFull)
	l["fabric.ecn_marked"] = float64(tb.Net.ECNMarked)
	l["load.flows"] = 1
	if pr.vprof && tb.Prof != nil {
		for layer, ns := range vcpuByLayer(tb.Prof.Folded()) {
			l["model.vcpu_ns."+layer] = ns
		}
	}
	out.finish()
	return out
}

// vcpuLayers are the layers virtual CPU time is folded onto.
var vcpuLayers = []string{"socket", "tcpip", "cabdrv", "intr", "app"}

// vcpuByLayer sums the virtual profiler's folded stacks
// ("host;frame;...;category ns" per line) by the leaf-most frame that
// names a layer. tcp_*, ip_* and udp_* frames are tcpip's; a stack with
// no layer frame (the ttcp and util tasks' own time) is the application.
func vcpuByLayer(folded string) map[string]float64 {
	out := map[string]float64{}
	for _, l := range vcpuLayers {
		out[l] = 0
	}
	for _, line := range strings.Split(strings.TrimSpace(folded), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		ns, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		frames := strings.Split(line[:i], ";")
		layer := "app"
		// frames[0] is the host and the last frame the category.
		for j := len(frames) - 2; j >= 1; j-- {
			if l := vcpuLayerOf(frames[j]); l != "" {
				layer = l
				break
			}
		}
		out[layer] += ns
	}
	return out
}

func vcpuLayerOf(frame string) string {
	switch {
	case frame == "socket":
		return "socket"
	case strings.HasPrefix(frame, "tcp_") || strings.HasPrefix(frame, "ip_") || strings.HasPrefix(frame, "udp_"):
		return "tcpip"
	case strings.HasPrefix(frame, "cabdrv"):
		return "cabdrv"
	case frame == "intr":
		return "intr"
	}
	return ""
}

func repeatLoad(s load.Scenario, pr probes, timed func(f func())) outcome {
	sp := pr.tr.begin("build")
	s.EngObs = pr.obs
	pr.tr.end(sp)

	var (
		rep *load.Report
		err error
	)
	timed(func() {
		sp := pr.tr.begin("run")
		rep, err = load.Run(s)
		pr.tr.end(sp)
	})

	sp = pr.tr.begin("verify")
	defer pr.tr.end(sp)
	out := outcome{attempted: s.Flows, layer: map[string]float64{}}
	if err != nil {
		out.fail("load.Run: %v", err)
		out.failed = s.Flows
		return out
	}
	if rep.Errors != 0 {
		out.fail("%d flow errors, first: %s", rep.Errors, rep.FirstError)
		out.failed += rep.Errors
	}
	if rep.Starved != 0 {
		out.fail("%d flows delivered nothing", rep.Starved)
		out.failed += rep.Starved
	}
	if rep.Flows != s.Flows {
		out.fail("ran %d flows, want %d", rep.Flows, s.Flows)
	}
	if s.Bulk {
		if rep.TotalBytes <= 0 || rep.SentBytes < rep.TotalBytes {
			out.fail("delivered %d of %d bytes sent", rep.TotalBytes, rep.SentBytes)
		}
	} else {
		if want := int64(rep.TCPFlows * s.Requests); rep.Requests != want {
			out.fail("completed %d requests, want %d", rep.Requests, want)
		}
		if rep.DgramsRcvd != rep.DgramsSent {
			out.fail("received %d of %d datagrams", rep.DgramsRcvd, rep.DgramsSent)
		}
	}
	out.virt = fmt.Sprintf("vtime=%v digest=%s bytes=%d", rep.VTimeSec, rep.OrderDigest, rep.TotalBytes)

	l := out.layer
	l["model.v_ns"] = math.Round(rep.VTimeSec * 1e9)
	if rep.WindowSec > 0 {
		l["model.v_goodput_mbps"] = float64(rep.TotalBytes) * 8 / rep.WindowSec / 1e6
	}
	l["model.v_lat_p99_us"] = rep.LatP99Us
	l["model.v_jain"] = rep.Jain
	l["cab.rx_retries"] = float64(rep.RxRetries)
	l["cab.drops"] = float64(rep.Drops)
	l["cab.arb_waits"] = float64(rep.ArbWaits)
	l["fabric.trunk_drops"] = float64(rep.TrunkDrops)
	l["fabric.ecn_marked"] = float64(rep.ECNMarked)
	l["load.flows"] = float64(rep.Flows)
	l["load.requests"] = float64(rep.Requests)
	out.finish()
	return out
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
