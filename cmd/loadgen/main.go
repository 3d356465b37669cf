// Command loadgen drives the many-flow workload engine (internal/load)
// from the command line: it stands up an N-client × M-server testbed,
// runs hundreds to thousands of concurrent TCP/UDP flows through the
// real socket path, and prints the run's report.
//
// Usage:
//
//	loadgen -flows 256 -clients 4 -servers 2 -udpfrac 0.25 -openloop -rate 2000
//	loadgen -flows 11 -bulk -duration 120ms -warmup 20ms -arb        # fairness incast
//	loadgen -flows 1024 -requests 2 -json                            # machine-readable
//
// An unknown -mode, or a -series-interval-us that is not a positive whole
// number of µs, is refused with exit status 2; a failed run exits 1, after
// writing any profile it was asked for.
//
// Two invocations with the same flags are byte-identical (the report
// carries an order digest over every delivery event), so loadgen output
// can be diffed to check determinism across code changes.
//
// -engobs prints the simulator's own meta-profile (events dispatched per
// kind, queue high-waters, advisory events/sec and allocs/event) after
// the run, and -cpuprofile/-memprofile capture pprof profiles of the
// simulator process — the tools for making big runs cheaper:
//
//	loadgen -flows 1024 -openloop -rate 2000 -arb -engobs -cpuprofile cpu.pprof
//
// -netobs enables the transport-dynamics observatory and prints the
// per-flow congestion postmortem (verdicts like netmem-starved or
// RTO-bound next to the retransmission taxonomy and wire-port busy
// fractions); -netobs-json dumps the raw recorder, -netobs-chrome writes
// Chrome-trace counter tracks. -series/-series-csv write the testbed
// utilization time-series, sampled every -series-interval-us of virtual
// time (the sampler stops when the last client flow finishes):
//
//	loadgen -flows 11 -bulk -duration 120ms -warmup 20ms -netobs
//	loadgen -flows 11 -bulk -duration 120ms -arb -series series.json
//
// -topology routes the testbed through a multi-switch fabric
// (internal/fabric) instead of the classic single switch, with seeded
// ECMP across equal-cost uplinks; -cc selects the TCP congestion
// control, and -queuecap/-ecnthresh set the per-port wire queue cap and
// the fabric's CE-marking threshold:
//
//	loadgen -topology leafspine:4x2 -cc dctcp -queuecap 256 -flows 64 -bulk -netobs
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/cab"
	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/obs/engine"
	"repro/internal/socket"
	"repro/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process edges as parameters; it returns the exit
// status: 2 for bad flags, 1 for a failed run or profile write. Every
// return goes through the deferred profile writers, so -cpuprofile and
// -memprofile are complete whatever the outcome.
func run(args []string, stdout, stderr io.Writer) (status int) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed    = fs.Int64("seed", 1, "scenario seed (all randomness derives from it)")
		name    = fs.String("name", "loadgen", "scenario name in the report")
		clients = fs.Int("clients", 4, "client hosts")
		servers = fs.Int("servers", 2, "server hosts")
		flows   = fs.Int("flows", 64, "concurrent flows")
		udpfrac = fs.Float64("udpfrac", 0.25, "fraction of flows carried over UDP")
		mode    = fs.String("mode", "single_copy", "stack variant: single_copy or unmodified")

		bulk      = fs.Bool("bulk", false, "bulk streaming instead of request/response")
		duration  = fs.Duration("duration", 20*time.Millisecond, "bulk: virtual-time send deadline")
		warmup    = fs.Duration("warmup", 0, "bulk: exclude deliveries before this virtual time from goodput")
		bulkWrite = fs.Int("bulkwrite", 32, "bulk: write size in KB")

		requests = fs.Int("requests", 4, "request/response: exchanges per flow")
		openloop = fs.Bool("openloop", false, "Poisson open-loop arrivals instead of closed loop")
		rate     = fs.Float64("rate", 1000, "open loop: requests/second per flow")
		think    = fs.Duration("think", 0, "closed loop: mean think time between requests")

		window   = fs.Int("window", 0, "TCP socket buffer / offered window in KB (0 = stack default)")
		udpthink = fs.Duration("udpthink", 0, "per-datagram processing time at UDP receivers")
		stagger  = fs.Duration("stagger", 0, "spread flow starts uniformly over this interval")

		memKB = fs.Int("netmem", 0, "per-adaptor network memory in KB (0 = adaptor default)")
		arb   = fs.Bool("arb", false, "install the per-flow netmem arbiter on every host")

		topology  = fs.String("topology", "", `multi-switch fabric spec: "linear:N", "leafspine:LxS", "fattree:LxS" (empty = classic single switch)`)
		cc        = fs.String("cc", "", "TCP congestion control: reno or dctcp (empty = reno)")
		queuecap  = fs.Int("queuecap", 0, "per-port wire queue cap in KB; overruns tail-drop (0 = unbounded)")
		ecnthresh = fs.Int("ecnthresh", 0, "fabric CE-marking queue threshold in KB (0 with -cc dctcp = 32)")
		mtu       = fs.Int("mtu", 0, "network-layer MTU in bytes (0 = the 32 KB paper default)")

		faultPlan = fs.String("fault", "", `fault-injection plan, e.g. "partition:at=5ms,dur=20ms" or "cabreset:at=8ms" (see internal/fault.ParsePlan)`)

		jsonOut = fs.Bool("json", false, "emit the full report as JSON")

		netobsFlag = fs.Bool("netobs", false, "record per-flow TCP dynamics and wire-port telemetry and print the congestion postmortem")
		files      = core.RegisterArtifacts(fs, "series", "series-csv", "netobs-json", "netobs-chrome")

		engObs  = fs.Bool("engobs", false, "print the simulator meta-profile (engine event counters) after the run")
		cpuProf = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(status int, err error) int {
		fmt.Fprintln(stderr, "loadgen:", err)
		return status
	}
	var stack socket.Mode
	switch *mode {
	case "single_copy":
		stack = socket.ModeSingleCopy
	case "unmodified":
		stack = socket.ModeUnmodified
	default:
		return fail(2, fmt.Errorf("unknown -mode %q (want single_copy, unmodified)", *mode))
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(1, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(1, err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				status = fail(1, err)
				return
			}
			fmt.Fprintf(stderr, "wrote %s\n", *cpuProf)
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				status = fail(1, err)
				return
			}
			runtime.GC()
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				status = fail(1, err)
				return
			}
			fmt.Fprintf(stderr, "wrote %s\n", *memProf)
		}()
	}

	s := load.Scenario{
		Name:           *name,
		Seed:           *seed,
		Mode:           stack,
		Clients:        *clients,
		Servers:        *servers,
		Flows:          *flows,
		UDPFrac:        *udpfrac,
		Bulk:           *bulk,
		Duration:       units.Time(*duration),
		Warmup:         units.Time(*warmup),
		BulkWrite:      units.Size(*bulkWrite) * units.KB,
		Requests:       *requests,
		OpenLoop:       *openloop,
		Rate:           *rate,
		Think:          units.Time(*think),
		Window:         units.Size(*window) * units.KB,
		UDPServerThink: units.Time(*udpthink),
		Stagger:        units.Time(*stagger),
		FaultPlan:      *faultPlan,
		Topology:       *topology,
		CC:             *cc,
		QueueCap:       units.Size(*queuecap) * units.KB,
		ECNThreshold:   units.Size(*ecnthresh) * units.KB,
		MTU:            units.Size(*mtu),
	}
	if *memKB < 0 {
		return fail(1, fmt.Errorf("-netmem %d KB is negative (0 = adaptor default)", *memKB))
	}
	if *memKB > 0 {
		c := cab.DefaultConfig()
		c.MemSize = units.Size(*memKB) * units.KB
		s.CABConfig = &c
	}
	if *arb {
		s.Arbiter = &cab.ArbConfig{}
	}
	s.Recorders = files.Recorders().Union(core.Recorders{NetObs: *netobsFlag})

	var o *engine.Observer
	if *engObs {
		o = engine.New()
		s.EngObs = o
	}
	rep, err := load.Run(s)
	if err != nil {
		return fail(1, err)
	}
	if *jsonOut {
		stdout.Write(rep.JSON())
	} else {
		fmt.Fprintf(stdout, "%s: %d flows (%d tcp, %d udp) mode=%s vtime=%.3fs\n",
			rep.Name, rep.Flows, rep.TCPFlows, rep.UDPFlows, rep.Mode, rep.VTimeSec)
		fmt.Fprintf(stdout, "  delivered %d bytes (%d requests, %d/%d dgrams)\n",
			rep.TotalBytes, rep.Requests, rep.DgramsRcvd, rep.DgramsSent)
		fmt.Fprintf(stdout, "  goodput min/p50/mean/max %.2f/%.2f/%.2f/%.2f Mb/s  jain=%.4f starved=%d\n",
			rep.GoodputMinMbps, rep.GoodputP50Mbps, rep.GoodputMeanMbps, rep.GoodputMaxMbps,
			rep.Jain, rep.Starved)
		fmt.Fprintf(stdout, "  latency p50/p99 %.1f/%.1f us  drops=%d rx_retries=%d listen_overflows=%d\n",
			rep.LatP50Us, rep.LatP99Us, rep.Drops, rep.RxRetries, rep.ListenOverflows)
		if rep.Arbiter {
			fmt.Fprintf(stdout, "  arbiter: waits=%d borrows=%d reclaims=%d\n",
				rep.ArbWaits, rep.ArbBorrows, rep.ArbReclaims)
		}
		if rep.FaultReport != "" {
			fmt.Fprintf(stdout, "  %s\n", rep.FaultReport)
		}
		if rep.Topology != "" {
			fmt.Fprintf(stdout, "  fabric %s cc=%s marks=%d trunk_drops=%d\n",
				rep.Topology, rep.CC, rep.ECNMarked, rep.TrunkDrops)
			for _, t := range rep.Trunks {
				fmt.Fprintf(stdout, "    trunk %-14s ab=%-9d ba=%-9d drops=%d/%d\n",
					t.Name, int64(t.AB), int64(t.BA), t.DropsAB, t.DropsBA)
			}
		}
		if rep.Audit != "" {
			fmt.Fprintf(stdout, "  single_copy_audit=%s\n", rep.Audit)
		}
		fmt.Fprintf(stdout, "  order_digest=%s\n", rep.OrderDigest)
	}
	// With -json the report owns stdout; human renderings go to stderr.
	human := stdout
	if *jsonOut {
		human = stderr
	}
	if *netobsFlag && rep.NetObs != nil {
		fmt.Fprint(human, rep.NetObs.Format())
	}
	if err := files.Write(rep.Testbed); err != nil {
		return fail(1, err)
	}
	if o != nil {
		fmt.Fprintln(human, "engine meta-profile:")
		for _, line := range strings.Split(strings.TrimRight(o.Snapshot().Format(), "\n"), "\n") {
			fmt.Fprintf(human, "  %s\n", line)
		}
	}
	if rep.Errors != 0 {
		return fail(1, fmt.Errorf("%d flow errors (first: %s)", rep.Errors, rep.FirstError))
	}
	return 0
}
