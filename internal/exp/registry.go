package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/taxonomy"
	"repro/internal/units"
)

// Experiment is one entry of the registry: everything the CLI, the
// baseline gate, the Makefile and CI know about an experiment. To add one,
// append an entry to Registry (and commit its File, if it has one, with
// `make bench`); nothing else names experiments.
type Experiment struct {
	Name string
	// Doc is the one-line description the CLI usage prints.
	Doc string
	// Paper marks the paper's own evaluation (its tables, figures and the
	// studies its text cites): what `-exp all` prints.
	Paper bool
	// File is the committed baseline this entry regenerates ("" for
	// print-only entries).
	File string
	// Exact selects the gate's tolerance class for File's numeric leaves:
	// zero tolerance when set, defaultRel/defaultAbs otherwise. The class
	// lives here, not in the JSON, so committed bytes do not carry it.
	Exact bool
	// Run executes the experiment. quick selects a reduced grid where the
	// entry has one (never a baseline); entries without one ignore it. A
	// non-nil error may still come with a Result worth printing (a failed
	// audit's table).
	Run func(quick bool) (Result, error)
}

// Result is one run's renderings.
type Result struct {
	Text string // the paper-style table
	CSV  string // plot-ready rows, for entries that have them
	JSON []byte // File's contents
}

// quickSizes is the reduced read/write-size grid: fast, while spanning
// the interesting range.
var quickSizes = []units.Size{4 * units.KB, 16 * units.KB, 64 * units.KB, 256 * units.KB}

func gridFor(quick bool) []units.Size {
	if quick {
		return quickSizes
	}
	return DefaultSizes()
}

// table is what every bench type offers the registry; figure adds the
// figures' own JSON rendering.
type (
	table  interface{ Format() string }
	figure interface {
		table
		JSON() []byte
	}
)

// text adapts a print-only experiment.
func text(render func() string) func(bool) (Result, error) {
	return func(bool) (Result, error) { return Result{Text: render()}, nil }
}

// bench adapts a baseline generator, whose value is both the table
// (Format) and the file (benchJSON). A failed run renders nothing: its
// value may be half-filled.
func bench[B table](run func(quick bool) (B, error)) func(bool) (Result, error) {
	return func(quick bool) (Result, error) {
		b, err := run(quick)
		if err != nil {
			return Result{}, err
		}
		return Result{Text: b.Format(), JSON: benchJSON(b)}, nil
	}
}

// fullOnly adapts a generator that has no reduced grid.
func fullOnly[B any](run func() (B, error)) func(bool) (B, error) {
	return func(bool) (B, error) { return run() }
}

// Registry returns the experiment table, in the order `all` and `bench`
// run it. Each call builds a fresh table whose fig7/fig8/fig9 entries
// share one memoized Figure 7–9 sweep per grid, so running all three — or
// gating all three — simulates each (mode, size) transfer once.
func Registry() []Experiment {
	sweeps := map[bool][]figure{} // by quick
	breakdown := func(i int) func(bool) (Result, error) {
		return func(quick bool) (Result, error) {
			figs, ok := sweeps[quick]
			if !ok {
				f7, f8, f9 := RunBreakdowns(gridFor(quick))
				figs = []figure{f7, f8, f9}
				sweeps[quick] = figs
			}
			return Result{Text: figs[i].Format(), JSON: figs[i].JSON()}, nil
		}
	}
	curves := func(fig func([]units.Size) Figure) func(bool) (Result, error) {
		return func(quick bool) (Result, error) {
			f := fig(gridFor(quick))
			return Result{Text: f.Format(), CSV: f.CSV(), JSON: f.JSON()}, nil
		}
	}

	return []Experiment{
		{Name: "table1", Paper: true, Doc: "Table 1: the data-touch taxonomy",
			Run: text(taxonomy.Format)},
		{Name: "table2", Paper: true, Doc: "Table 2: VM operation costs, measured vs paper",
			Run: text(func() string { return FormatTable2(MeasureTable2()) })},
		{Name: "analysis", Paper: true, Doc: "Section 7.3 analytic efficiency estimates",
			Run: text(func() string {
				s := "Section 7.3 analytic estimates (Alpha 3000/400, 32KB packets):\n"
				for _, e := range analysis.PaperTable() {
					s += "  " + e.String() + "\n"
				}
				return s
			})},
		{Name: "hol", Paper: true, Doc: "Section 2.1 head-of-line blocking: FIFO vs logical channels",
			Run: text(func() string {
				return FormatHOL([]HOLResult{RunHOL(2, 20000, 1), RunHOL(8, 20000, 2), RunHOL(32, 20000, 3)})
			})},
		{Name: "window", Paper: true, Doc: "Section 7.2 TCP window sweep, unmodified stack",
			Run: text(func() string { return FormatWindowSweep(RunWindowSweep(nil)) })},
		{Name: "lazy", Paper: true, Doc: "Section 4.4.1 lazy-unpin ablation",
			Run: text(func() string { return FormatLazyPin(RunLazyPinAblation()) })},
		{Name: "threshold", Paper: true, Doc: "Section 4.4.3 UIO write-size threshold ablation",
			Run: text(func() string { return FormatThreshold(RunThresholdAblation(nil)) })},
		{Name: "fig5", Paper: true, File: "BENCH_fig5.json", Run: curves(Figure5),
			Doc: "Figure 5: throughput/utilization/efficiency vs r/w size, Alpha 3000/400"},
		{Name: "fig6", Paper: true, File: "BENCH_fig6.json", Run: curves(Figure6),
			Doc: "Figure 6: the same on the Alpha 3000/300LX"},
		{Name: "fig7", Paper: true, File: "BENCH_fig7.json", Run: breakdown(0),
			Doc: "Figure 7: sender CPU breakdown by category"},
		{Name: "fig8", Paper: true, File: "BENCH_fig8.json", Run: breakdown(1),
			Doc: "Figure 8: receiver CPU breakdown by category"},
		{Name: "fig9", Paper: true, File: "BENCH_fig9.json", Run: breakdown(2),
			Doc: "Figure 9: sender cost per KB by Section 7.3 class"},
		{Name: "chaos", Run: chaos,
			Doc: "the adversarial soak matrix as a table; fails on any invariant violation"},
		// The single-copy auditor (`make audit`): both stack variants with
		// the data-touch ledger on. A failed oracle is an error, and the
		// table still prints. Touch counts are exact integers — copies,
		// checksums, DMA crossings per byte.
		{Name: "touches", File: "BENCH_touches.json", Exact: true,
			Doc: "single-copy audit: measured data-touch table per stack variant",
			Run: func(bool) (Result, error) {
				rep, err := RunTouches(1)
				return Result{Text: rep.Format(), JSON: benchJSON(rep)}, err
			}},
		// Throughput and latency leaves get the relative tolerance; the
		// structure, flow counts and order digests (strings) are compared
		// exactly, so the gate still pins event-ordering determinism.
		{Name: "load", File: "BENCH_load.json", Run: bench(fullOnly(RunLoadBench)),
			Doc: "many-flow workload engine: 256-flow mix plus the fairness pair"},
		// The entries below are pure functions of their seeded event
		// sequences (see each bench type), hence Exact.
		{Name: "simbench", File: "BENCH_sim.json", Exact: true, Run: bench(RunSimBench),
			Doc: "simulator self-observatory: engine meta-profile of the seeded workload matrix"},
		{Name: "critpath", File: "BENCH_critpath.json", Exact: true, Run: bench(RunCritPath),
			Doc: "critical-path latency attribution over the Figure 5 sweep and a 64-flow incast"},
		{Name: "recover", File: "BENCH_recover.json", Exact: true, Run: bench(fullOnly(RunRecoverBench)),
			Doc: "fault-domain recovery matrix: partition/heal, adaptor reset, peer death"},
		{Name: "netobs", File: "BENCH_netobs.json", Exact: true, Run: bench(fullOnly(RunNetObs)),
			Doc: "transport-dynamics postmortems of the fairness incast pair"},
		{Name: "fabric", File: "BENCH_fabric.json", Exact: true, Run: bench(fullOnly(RunFabric)),
			Doc: "multi-switch fabric: ECMP, CE marking, Reno vs DCTCP, partition/heal"},
	}
}

// Select resolves a CLI selector against the table: a registered name,
// "all" (the paper's evaluation) or "bench" (every entry with a baseline).
func Select(reg []Experiment, sel string) ([]Experiment, error) {
	var out []Experiment
	for _, e := range reg {
		if e.Name == sel || sel == "all" && e.Paper || sel == "bench" && e.File != "" {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q; the registry has:\n%s", sel, Usage(reg))
	}
	return out, nil
}

// Usage lists the table, one entry per line, for the CLI's help.
func Usage(reg []Experiment) string {
	var b strings.Builder
	for _, e := range reg {
		fmt.Fprintf(&b, "  %-10s %-20s %s\n", e.Name, e.File, e.Doc)
	}
	fmt.Fprintf(&b, "  %-10s every entry above with a baseline file\n", "bench")
	fmt.Fprintf(&b, "  %-10s the paper's evaluation: table1 through fig9\n", "all")
	return b.String()
}

// Check is the baseline gate for one entry: regenerate it and compare the
// result against the committed File in dir. The fresh run is a second
// same-seed run of whatever produced the committed bytes, so a clean Diff
// is also the entry's determinism check on the full grid.
func (e Experiment) Check(dir string) (Diff, error) {
	if e.File == "" {
		return Diff{}, fmt.Errorf("%s has no baseline file", e.Name)
	}
	committed, err := os.ReadFile(filepath.Join(dir, e.File))
	if err != nil {
		return Diff{}, err
	}
	res, err := e.Run(false)
	if err != nil {
		return Diff{}, err
	}
	return compareJSON(e.File, committed, res.JSON, e.Exact)
}
