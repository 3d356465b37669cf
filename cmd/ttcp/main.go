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
// An unknown -mode, -proto or -machine value is refused with exit status 2.
//
// -audit enables the data-touch ledger and prints the per-flow audit
// table (one row per host × touch kind with per-byte min/max); for TCP it
// then checks the stack's copy-count oracle — single-copy mode must show
// exactly one checksum-in-flight host-bus DMA and zero CPU touches per
// sender byte — and exits nonzero on violation. -ledger writes the full
// interval-record ledger; -flightrec writes the bounded flight-recorder
// image (recent ledger + trace events per host).
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
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/critpath"
	"repro/internal/obs/ledger"
	"repro/internal/socket"
	"repro/internal/ttcp"
	"repro/internal/units"
	"repro/internal/wire"
)

// parseSize accepts 64K / 4M / 512 style sizes.
func parseSize(s string) (units.Size, error) {
	mult := units.Size(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = units.KB, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = units.MB, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	return units.Size(n) * mult, nil
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
	sizeS := fs.String("size", "64K", "read/write size")
	totalS := fs.String("total", "16M", "bytes to transfer")
	windowS := fs.String("window", "512K", "TCP window / socket buffer")
	machine := fs.String("machine", "alpha400", "host model: alpha400, alpha300")
	lazy := fs.Bool("lazy", false, "enable the lazy-unpin buffer cache")
	stats := fs.Bool("stats", false, "print telemetry counters and the per-packet latency histogram")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON file to this path")
	metricsOut := fs.String("metrics", "", "write the JSON metrics snapshot to this path")
	profile := fs.Bool("profile", false, "print folded-stacks CPU profile to stdout")
	profileOut := fs.String("profile-out", "", "write the folded-stacks CPU profile to this path")
	profileJSON := fs.String("profile-json", "", "write the CPU profile JSON snapshot to this path")
	seriesOut := fs.String("series", "", "write the utilization time-series JSON to this path")
	seriesCSV := fs.String("series-csv", "", "write the utilization time-series CSV to this path")
	seriesIntervalUS := fs.Int64("series-interval-us", 100, "series sampling interval, µs of virtual time")
	faultPlan := fs.String("fault", "", "fault plan, e.g. 'drop:every=13,min=1000;corrupt:p=0.01' (see internal/fault)")
	faultSeed := fs.Int64("fault-seed", 1, "fault injector seed")
	auditFlag := fs.Bool("audit", false, "enable the data-touch ledger and print the per-flow audit table; fails if the stack's copy-count oracle does not hold")
	ledgerOut := fs.String("ledger", "", "with -audit, also write the full ledger JSON to this path")
	flightRec := fs.String("flightrec", "", "write the flight-recorder image (recent ledger + trace events) to this path")
	critFlag := fs.Bool("critpath", false, "record per-transfer happens-before graphs and print the critical-path latency attribution")
	critChrome := fs.String("critpath-chrome", "", "with -critpath, also write the critical paths as a Chrome trace-event file to this path")
	netobsFlag := fs.Bool("netobs", false, "record per-flow TCP dynamics and wire-port telemetry and print the congestion postmortem")
	netobsJSON := fs.String("netobs-json", "", "write the full transport-dynamics recorder dump to this path")
	netobsChrome := fs.String("netobs-chrome", "", "write the transport-dynamics series as Chrome-trace counter tracks to this path")
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

	size, err := parseSize(*sizeS)
	if err != nil {
		return fail(1, err)
	}
	total, err := parseSize(*totalS)
	if err != nil {
		return fail(1, err)
	}
	window, err := parseSize(*windowS)
	if err != nil {
		return fail(1, err)
	}

	mach := cost.Alpha400
	if *machine == "alpha300" {
		mach = cost.Alpha300
	}

	tb := core.NewTestbed(1)
	if *stats || *traceOut != "" || *metricsOut != "" || *flightRec != "" {
		tb.EnableTelemetry()
	}
	var critRec *obs.CritRec
	if *critFlag || *critChrome != "" {
		critRec = tb.EnableCritPath()
	}
	if *auditFlag || *ledgerOut != "" || *flightRec != "" {
		tb.EnableLedger()
	}
	if *profile || *profileOut != "" || *profileJSON != "" {
		tb.EnableProfiling()
	}
	if *seriesOut != "" || *seriesCSV != "" {
		tb.EnableSeries(units.Time(*seriesIntervalUS) * units.Microsecond)
	}
	if *netobsFlag || *netobsJSON != "" || *netobsChrome != "" {
		tb.EnableNetObs()
	}
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
	write := func(path string, b []byte) error { return os.WriteFile(path, b, 0o644) }
	emitTelemetry := func() error {
		if *flightRec != "" {
			if err := write(*flightRec, tb.FlightDump()); err != nil {
				return err
			}
		}
		if tb.Led != nil {
			led := tb.Led
			flow := led.MainFlow()
			if *ledgerOut != "" {
				if err := write(*ledgerOut, led.JSON()); err != nil {
					return err
				}
			}
			if *auditFlag {
				fmt.Fprint(report, "\n"+led.Summary(flow, total, []string{"snd", "wire", "rcv"}).Format())
				cfg := ledger.AuditConfig{Flow: flow, Total: total,
					SndHost: "snd", RcvHost: "rcv", Strict: *faultPlan == ""}
				var err error
				switch {
				case *proto != "tcp" || *mode == "raw":
					fmt.Fprintln(report, "  oracle: skipped (TCP flows only)")
				case *mode == "unmodified":
					err = led.AssertMultiCopy(cfg)
				default:
					err = led.AssertSingleCopy(cfg)
				}
				if err != nil {
					return fmt.Errorf("audit: %w", err)
				} else if *proto == "tcp" && *mode != "raw" {
					fmt.Fprintln(report, "  oracle: ok")
				}
			}
		}
		if inj != nil {
			fmt.Fprintf(report, "  %s\n", inj.Report())
		}
		if critRec != nil {
			rep := critpath.Analyze(critRec)
			if *critFlag {
				fmt.Fprint(report, "\n")
				rep.WriteText(report, false)
			}
			if *critChrome != "" {
				if err := write(*critChrome, rep.ChromeJSON()); err != nil {
					return err
				}
			}
		}
		if tb.Prof != nil {
			if *profile {
				fmt.Fprint(stdout, tb.Prof.Folded())
			}
			if *profileOut != "" {
				if err := write(*profileOut, []byte(tb.Prof.Folded())); err != nil {
					return err
				}
			}
			if *profileJSON != "" {
				if err := write(*profileJSON, tb.Prof.Snapshot().JSON()); err != nil {
					return err
				}
			}
		}
		if tb.NetObs != nil {
			if *netobsFlag {
				fmt.Fprint(report, "\n"+tb.NetObsPostmortem(0).Format())
			}
			if *netobsJSON != "" {
				if err := write(*netobsJSON, tb.NetObs.Snapshot().JSON()); err != nil {
					return err
				}
			}
			if *netobsChrome != "" {
				if err := write(*netobsChrome, tb.NetObs.Chrome()); err != nil {
					return err
				}
			}
		}
		if tb.Series != nil {
			snap := tb.Series.Snapshot()
			if *seriesOut != "" {
				if err := write(*seriesOut, snap.JSON()); err != nil {
					return err
				}
			}
			if *seriesCSV != "" {
				if err := write(*seriesCSV, []byte(snap.CSV())); err != nil {
					return err
				}
			}
		}
		if tb.Tel == nil {
			return nil
		}
		if *stats {
			fmt.Fprint(report, "\n"+tb.Tel.Snapshot().Format())
		}
		if *metricsOut != "" {
			if err := write(*metricsOut, tb.Tel.Snapshot().JSON()); err != nil {
				return err
			}
		}
		if *traceOut != "" {
			return write(*traceOut, tb.Tel.Chrome())
		}
		return nil
	}
	finish := func() int {
		if err := emitTelemetry(); err != nil {
			return fail(1, err)
		}
		return 0
	}

	var res ttcp.Result
	if *proto == "udp" && *mode != "raw" {
		m := socket.ModeSingleCopy
		if *mode == "unmodified" {
			m = socket.ModeUnmodified
		}
		a := tb.AddHost(core.HostConfig{Name: "snd", Addr: wire.Addr(0x0a000001),
			Mach: mach(), Mode: m, CABNode: 1, LazyUnpin: *lazy})
		b := tb.AddHost(core.HostConfig{Name: "rcv", Addr: wire.Addr(0x0a000002),
			Mach: mach(), Mode: m, CABNode: 2, LazyUnpin: *lazy})
		tb.RouteCAB(a, b)
		ur := ttcp.RunUDP(tb, a, b, params)
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
	if *mode == "raw" {
		a := tb.AddHost(core.HostConfig{Name: "snd", Addr: wire.Addr(0x0a000001),
			Mach: mach(), CABNode: 1, NoDriver: true})
		b := tb.AddHost(core.HostConfig{Name: "rcv", Addr: wire.Addr(0x0a000002),
			Mach: mach(), CABNode: 2, NoDriver: true})
		res = ttcp.RunRaw(tb, a, b, params)
	} else {
		m := socket.ModeSingleCopy
		if *mode == "unmodified" {
			m = socket.ModeUnmodified
		}
		a := tb.AddHost(core.HostConfig{Name: "snd", Addr: wire.Addr(0x0a000001),
			Mach: mach(), Mode: m, CABNode: 1, LazyUnpin: *lazy})
		b := tb.AddHost(core.HostConfig{Name: "rcv", Addr: wire.Addr(0x0a000002),
			Mach: mach(), Mode: m, CABNode: 2, LazyUnpin: *lazy})
		tb.RouteCAB(a, b)
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
