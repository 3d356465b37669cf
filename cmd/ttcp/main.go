// Command ttcp runs one simulated bulk transfer between two hosts and
// reports throughput, utilization, and efficiency — the simulated analogue
// of the ttcp runs behind Figures 5 and 6.
//
// Usage:
//
//	ttcp [-mode single|unmodified|raw] [-proto tcp|udp] [-size 64K] [-total 16M]
//	     [-machine alpha400|alpha300] [-window 512K] [-lazy]
//	     [-stats] [-trace out.json] [-metrics out.json]
//	     [-profile] [-profile-out out.folded] [-profile-json out.json]
//	     [-series out.json] [-series-csv out.csv] [-series-interval-us 100]
//	     [-fault 'drop:every=13,min=1000;corrupt:p=0.01'] [-fault-seed 1]
//	     [-audit] [-ledger out.json] [-flightrec out.json]
//	     [-critpath] [-critpath-chrome out.json]
//	     [-netobs] [-netobs-json out.json] [-netobs-chrome out.json]
//
// An unknown -mode, -proto or -machine value, a -size, -total or -window
// that is not a positive size, or a -series-interval-us that is not a
// positive whole number of µs, is refused with exit status 2.
//
// -audit enables the data-touch ledger and prints the per-flow audit
// table (one row per host × touch kind with per-byte min/max); for TCP it
// then audits the flow against the stack's Table 1 cells — single-copy
// mode must show exactly one checksum-in-flight host-bus DMA and zero CPU
// touches per sender byte, unmodified mode one CPU copy and one CPU
// checksum per byte on each host — and exits nonzero on violation. UDP and
// raw-HIPPI runs record no data touches, and -audit says so in place of the
// table. -ledger writes the full interval-record ledger; -flightrec writes
// the bounded flight-recorder image (recent ledger + trace events per host).
// Every file flag is a row of core.Artifacts, and each works on its own.
//
// -fault injects a deterministic fault plan (grammar in internal/fault's
// ParsePlan) on the wire, the adaptor, and the kernel; the run then also
// reports which faults fired. The same plan and -fault-seed replay the
// exact same faults.
//
// -critpath records a happens-before graph of every lifecycle event in the
// transfer, extracts the critical path of each completed read, and prints
// the per-cause latency attribution (the last path's full waterfall plus
// the summary table); -critpath-chrome writes all critical paths as a
// Chrome trace-event file, one track per cause class.
//
// -netobs enables the transport-dynamics observatory and prints the
// congestion postmortem: the connection's cwnd/RTT/window series verdict
// joined with per-port wire busy/stall telemetry and adaptor-memory drops.
// -netobs-json writes the full recorder dump (every flow sample and port
// window); -netobs-chrome writes the series as Chrome-trace counter tracks.
//
// -stats prints the telemetry counter table and the per-packet virtual-time
// latency histogram with its per-stage breakdown; -trace writes a Chrome
// trace-event file (load in Perfetto or chrome://tracing); -metrics writes
// the deterministic JSON metrics snapshot.
//
// -profile enables the virtual-time CPU profiler and prints folded stacks
// (flamegraph.pl / speedscope "collapsed" format) whose values sum exactly
// to each host's kern.cpu_busy_ns; with -profile the human report moves to
// stderr so stdout pipes straight into flamegraph.pl.
// -profile-out/-profile-json write the folded text / JSON snapshot to
// files instead. -series samples CPU
// utilization, per-category shares, netmem occupancy, and TCP queue peaks
// every -series-interval-us of virtual time and writes the JSON series;
// -series-csv writes the same rows as CSV.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/hippi"
	"repro/internal/obs/critpath"
	"repro/internal/obs/ledger"
	"repro/internal/socket"
	"repro/internal/ttcp"
	"repro/internal/units"
	"repro/internal/wire"
)

// sizeFlag is a positive byte count flag, written 512, 64K or 4M.
type sizeFlag units.Size

func (f *sizeFlag) String() string { return strings.TrimSuffix(units.Size(*f).String(), "B") }

func (f *sizeFlag) Set(s string) error {
	n, err := units.ParseSize(s)
	if err == nil && n == 0 {
		err = fmt.Errorf("bad size %q (want a positive size)", s)
	}
	if err != nil {
		return err
	}
	*f = sizeFlag(n)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process edges as parameters; it returns the exit
// status: 2 for bad flags, 1 for a failed run or audit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ttcp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "single", "stack: single, unmodified, raw")
	proto := fs.String("proto", "tcp", "transport: tcp, udp")
	size, total, window := 64*units.KB, 16*units.MB, 512*units.KB
	fs.Var((*sizeFlag)(&size), "size", "read/write `size`")
	fs.Var((*sizeFlag)(&total), "total", "`bytes` to transfer")
	fs.Var((*sizeFlag)(&window), "window", "TCP window / socket buffer `size`")
	machine := fs.String("machine", "alpha400", "host model: alpha400, alpha300")
	lazy := fs.Bool("lazy", false, "enable the lazy-unpin buffer cache")
	stats := fs.Bool("stats", false, "print telemetry counters and the per-packet latency histogram")
	profile := fs.Bool("profile", false, "print folded-stacks CPU profile to stdout")
	faultPlan := fs.String("fault", "", "fault plan, e.g. 'drop:every=13,min=1000;corrupt:p=0.01' (see internal/fault)")
	faultSeed := fs.Int64("fault-seed", 1, "fault injector seed")
	auditFlag := fs.Bool("audit", false, "enable the data-touch ledger and print the per-flow audit table; fails if the stack's copy-count oracle does not hold")
	critFlag := fs.Bool("critpath", false, "record per-transfer happens-before graphs and print the critical-path latency attribution")
	netobsFlag := fs.Bool("netobs", false, "record per-flow TCP dynamics and wire-port telemetry and print the congestion postmortem")
	files := core.RegisterArtifacts(fs, "trace", "metrics", "profile-out", "profile-json", "series", "series-csv",
		"ledger", "flightrec", "critpath-chrome", "netobs-json", "netobs-chrome")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(status int, err error) int {
		fmt.Fprintln(stderr, "ttcp:", err)
		return status
	}
	for _, e := range []struct {
		name, val string
		want      []string
	}{
		{"mode", *mode, []string{"single", "unmodified", "raw"}},
		{"proto", *proto, []string{"tcp", "udp"}},
		{"machine", *machine, []string{"alpha400", "alpha300"}},
	} {
		if !slices.Contains(e.want, e.val) {
			return fail(2, fmt.Errorf("unknown -%s %q (want %s)", e.name, e.val, strings.Join(e.want, ", ")))
		}
	}

	mach := cost.Alpha400
	if *machine == "alpha300" {
		mach = cost.Alpha300
	}

	stack := socket.ModeSingleCopy
	if *mode == "unmodified" {
		stack = socket.ModeUnmodified
	}
	tx, rx := stack.Cells()

	tb := core.NewTestbed(1)
	rec := files.Recorders().Union(core.Recorders{
		Telemetry: *stats, CritPath: *critFlag, Profile: *profile, Ledger: *auditFlag, NetObs: *netobsFlag})
	tb.Record(rec)
	var inj *fault.Injector
	if *faultPlan != "" {
		inj = fault.New(tb.Eng, *faultSeed)
		if err := inj.AddPlan(*faultPlan); err != nil {
			return fail(1, err)
		}
		tb.EnableFaults(inj)
	}
	params := ttcp.Params{
		Total: total, RWSize: size, Window: window,
		WithUtil: true, WithBackground: true,
		// Under fault injection a connection may legitimately die
		// (adaptor reset, partition): surface the typed error in the
		// report instead of panicking.
		Tolerant: inj != nil,
	}
	// With -profile, stdout carries only the folded stacks (pipeable into
	// flamegraph.pl); the human report moves to stderr.
	report := stdout
	if *profile {
		report = stderr
	}
	// finish writes the artifact files, then prints the text reports.
	finish := func() int {
		if err := files.Write(tb); err != nil {
			return fail(1, err)
		}
		if *auditFlag {
			led := tb.Led
			flow := led.MainFlow()
			if len(led.Records()) == 0 {
				fmt.Fprintln(report, "\ndata-touch audit: this path records no data touches")
			} else {
				fmt.Fprint(report, "\n"+led.Summary(flow, total, []string{"snd", "wire", "rcv"}).Format())
			}
			cfg := ledger.AuditConfig{Flow: flow, Total: total,
				SndHost: "snd", RcvHost: "rcv", Strict: *faultPlan == ""}
			if *proto != "tcp" || *mode == "raw" {
				fmt.Fprintln(report, "  oracle: skipped (TCP flows only)")
			} else if err := led.AssertCell(tx, rx, cfg); err != nil {
				return fail(1, fmt.Errorf("audit: %w", err))
			} else {
				fmt.Fprintln(report, "  oracle: ok")
			}
		}
		if inj != nil {
			fmt.Fprintf(report, "  %s\n", inj.Report())
		}
		if *critFlag {
			fmt.Fprint(report, "\n")
			critpath.Analyze(tb.Tel.Crit()).WriteText(report, false)
		}
		if *profile {
			fmt.Fprint(stdout, tb.Prof.Folded())
		}
		if *netobsFlag {
			fmt.Fprint(report, "\n"+tb.NetObsPostmortem(0).Format())
		}
		if *stats {
			fmt.Fprint(report, "\n"+tb.Tel.Snapshot().Format())
		}
		return 0
	}

	// The raw path puts bare adaptors on the wire: no protocol driver, so
	// no route, and no lazy-unpin cache.
	raw := *mode == "raw"
	host := func(name string, addr wire.Addr, node hippi.NodeID) *core.Host {
		return tb.AddHost(core.HostConfig{Name: name, Addr: addr, Mach: mach(), Mode: stack,
			CABNode: node, NoDriver: raw, LazyUnpin: *lazy && !raw})
	}
	a := host("snd", wire.Addr(0x0a000001), 1)
	b := host("rcv", wire.Addr(0x0a000002), 2)
	if !raw {
		tb.RouteCAB(a, b)
	}

	var res ttcp.Result
	if *proto == "udp" && !raw {
		ur := ttcp.RunUDP(tb, a, b, params)
		if ur.SndErr != "" {
			return fail(1, fmt.Errorf("udp send of %v datagrams: %s", size, ur.SndErr))
		}
		fmt.Fprintf(report, "ttcp -u (%s stack, %s, %v datagrams)\n", *mode, mach().Name, size)
		fmt.Fprintf(report, "  sent %v, received %v (loss %.2f%%) in %v\n",
			ur.Sent, ur.Received, 100*ur.LossFraction, ur.Elapsed)
		fmt.Fprintf(report, "  throughput   %.1f Mb/s\n", ur.Throughput.Mbit())
		fmt.Fprintf(report, "  sender       util %.2f  efficiency %.1f Mb/s\n",
			ur.Snd.Utilization, ur.Snd.Efficiency.Mbit())
		fmt.Fprintf(report, "  receiver     util %.2f  efficiency %.1f Mb/s\n",
			ur.Rcv.Utilization, ur.Rcv.Efficiency.Mbit())
		return finish()
	}
	if raw {
		res = ttcp.RunRaw(tb, a, b, params)
	} else {
		res = ttcp.Run(tb, a, b, params)
	}

	fmt.Fprintf(report, "ttcp (%s stack, %s, %v writes, %v window)\n",
		*mode, mach().Name, size, window)
	fmt.Fprintf(report, "  transferred  %v in %v\n", res.Bytes, res.Elapsed)
	if res.SndErr != "" || res.RcvErr != "" {
		fmt.Fprintf(report, "  flow ended under fault: snd=%q rcv=%q\n", res.SndErr, res.RcvErr)
	}
	fmt.Fprintf(report, "  throughput   %.1f Mb/s\n", res.Throughput.Mbit())
	fmt.Fprintf(report, "  sender       util %.2f (true %.2f)  efficiency %.1f Mb/s\n",
		res.Snd.Utilization, res.Snd.TrueUtilization, res.Snd.Efficiency.Mbit())
	fmt.Fprintf(report, "  receiver     util %.2f (true %.2f)  efficiency %.1f Mb/s\n",
		res.Rcv.Utilization, res.Rcv.TrueUtilization, res.Rcv.Efficiency.Mbit())
	fmt.Fprintf(report, "  sender CPU breakdown:\n")
	for _, cat := range []string{"copy", "csum", "vm", "proto", "driver", "intr", "syscall", "app"} {
		if d, ok := res.Snd.Breakdown[cat]; ok {
			fmt.Fprintf(report, "    %-8s %v\n", cat, d)
		}
	}
	return finish()
}
