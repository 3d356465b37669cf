// Command experiments regenerates the paper's tables and figures from the
// simulator, and gates the committed baselines. What it can run is the
// registry in internal/exp; `experiments -h` prints the table.
//
// Usage:
//
//	experiments -exp <name>|all|bench   # print; names come from the registry
//	experiments -exp fig5 -quick        # fewer sizes, faster
//	experiments -exp bench -benchdir .  # rewrite every committed baseline
//	experiments -check [name...]        # regenerate and diff against -benchdir (default .)
//	experiments -exp simbench -cpuprofile cpu.pprof   # profile the simulator itself
//
// Baseline files are written only when -benchdir is given, and only on the
// full grid: -quick with -benchdir or -check is refused.
//
// -check is the perf-regression gate. Every file's verdict line carries its
// comparison coverage — "N exact / N tolerant / N advisory fields compared"
// — so a gate that quietly stops comparing anything is visible at a
// glance. Exit status 1 means at least one file regressed; each violation
// is printed with its JSON path and percentage drift.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"repro/internal/exp"
	"repro/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process edges as parameters; it returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) (status int) {
	reg := exp.Registry()
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	which := fs.String("exp", "all", "experiment to run: a name from the table below, all, or bench")
	check := fs.Bool("check", false, "gate mode: regenerate the named entries (default: every entry with a baseline) and compare against the committed files in -benchdir")
	quick := fs.Bool("quick", false, "use the reduced grid, for entries that have one")
	csv := fs.Bool("csv", false, "emit figures as CSV instead of tables")
	metricsOut := fs.String("metrics", "", "write a telemetry snapshot of one instrumented transfer to this JSON file")
	benchDir := fs.String("benchdir", "", "directory of the baseline files in the table below: written there by -exp, read from there by -check (default .)")
	cpuProf := fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProf := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "Usage: experiments [flags] [-check [name...]]\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nThe registry (name, baseline file, what it is):\n%s", exp.Usage(reg))
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(status int, err error) int {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return status
	}
	if *quick && (*check || *benchDir != "") {
		return fail(2, fmt.Errorf("-quick cannot be combined with -check or -benchdir: the quick grid is not a baseline"))
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(1, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(1, err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
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
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				status = fail(1, err)
				return
			}
			fmt.Fprintf(stderr, "wrote %s\n", *memProf)
		}()
	}

	if *check {
		sels := fs.Args()
		if len(sels) == 0 {
			sels = []string{"bench"}
		}
		if *benchDir == "" {
			*benchDir = "."
		}
		for _, sel := range sels {
			entries, err := exp.Select(reg, sel)
			if err != nil {
				return fail(2, err)
			}
			for _, e := range entries {
				d, err := e.Check(*benchDir)
				if err != nil {
					status = fail(1, fmt.Errorf("%s: %w", e.Name, err))
					continue
				}
				fmt.Fprintln(stdout, d.Summary(e.File))
				for _, v := range d.Violations {
					fmt.Fprintf(stdout, "  %s\n", v)
					status = 1
				}
				for _, a := range d.Advisories {
					fmt.Fprintf(stdout, "  adv  %s\n", a)
				}
			}
		}
		return status
	}

	if *metricsOut != "" {
		snap := exp.MetricsRun(64*units.KB, 1)
		if err := os.WriteFile(*metricsOut, snap.JSON(), 0o644); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stderr, "wrote %s\n", *metricsOut)
	}

	entries, err := exp.Select(reg, *which)
	if err != nil {
		return fail(2, err)
	}
	for _, e := range entries {
		if len(entries) > 1 {
			fmt.Fprintf(stdout, "=== %s ===\n", e.Name)
		}
		res, err := e.Run(*quick)
		switch {
		case *csv && res.CSV != "":
			fmt.Fprint(stdout, res.CSV)
		case res.Text != "":
			fmt.Fprintln(stdout, res.Text)
		}
		if err != nil {
			return fail(1, fmt.Errorf("%s: %w", e.Name, err))
		}
		if *benchDir != "" && e.File != "" {
			path := filepath.Join(*benchDir, e.File)
			if err := os.WriteFile(path, res.JSON, 0o644); err != nil {
				return fail(1, err)
			}
			fmt.Fprintf(stderr, "wrote %s\n", path)
		}
	}
	return 0
}
