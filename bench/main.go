// Command bench is the repository benchmark: five seeded workloads driven
// through the simulator's public entry points, reporting host-time
// end-to-end metrics from untraced repetitions and per-layer metrics from
// a separate traced run. README.md in this directory explains every
// workload and metric.
//
// The gate runs one workload per process:
//
//	go run -C bench repro/bench --workload bulk_single --seed 1 --seconds 15 --trace 0
//
// With no --workload it runs all five, each in a fresh child process so
// heap state and peak memory are per workload, first untraced and then
// traced, and prints one table. -aa does that twice and compares the two
// sets against the metrics' own bounds.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	var (
		cfg       config
		scale     string
		trace     int
		setupOnly bool
		aa        bool
		spec      bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload and print its result line (default: all five, each in a child process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: added to the testbed seed or Scenario.Seed")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&scale, "scale", "full", "full, or tiny for the smoke test (1 MB bulk, 32-flow load, 1 repetition)")
	flag.StringVar(&cfg.outDir, "out", "out", "directory for trace files and the suite's results.json")
	flag.BoolVar(&setupOnly, "setup-only", false, "set up the workload, then exit (the child side of a set-up probe)")
	flag.BoolVar(&aa, "aa", false, "run the whole set twice and compare the two against the bounds")
	flag.BoolVar(&spec, "spec", false, "print BENCHMARK.json as the metric tables define it, then exit")
	flag.Parse()

	if flag.NArg() > 0 || (scale != "full" && scale != "tiny") || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		os.Exit(2)
	}
	cfg.tiny = scale == "tiny"
	cfg.trace = trace == 1
	cfg.setupProbes = numSetupProbes

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var err error
	switch {
	case spec:
		_, err = os.Stdout.Write(specJSON())
	case setupOnly:
		var r *run
		if r, err = newRun(cfg, os.Stderr); err == nil && !r.setupOnly() {
			err = fmt.Errorf("%s: set-up repetition failed its checks", cfg.workload)
		}
	case cfg.workload != "":
		err = execute(ctx, cfg, os.Stdout)
	case aa:
		err = runAA(ctx, cfg, os.Stdout)
	default:
		_, err = runSuite(ctx, cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		stop()
		os.Exit(1)
	}
}

// suite is one pass over every workload: the result line of its untraced
// and of its traced run.
type suite struct {
	GoVersion  string                      `json:"go_version"`
	GOMAXPROCS int                         `json:"gomaxprocs"`
	NumCPU     int                         `json:"nproc"`
	Seed       int64                       `json:"seed"`
	Seconds    float64                     `json:"seconds"`
	EndToEnd   map[string]map[string]value `json:"end_to_end"`
	PerLayer   map[string]map[string]value `json:"per_layer"`
	// Derived holds the cross-workload ratios.
	Derived map[string]value `json:"derived"`
}

// suiteRows are the end-to-end rows only a full pass prints. The first two
// read 0 on a healthy run (v_eff_err_pct on every non-bulk workload),
// which a gated metric may never do: the gate reads failures from the
// result line's attempted/failed/correct and fidelity from the per-layer
// model.v_eff_err_pct. The third needs both settings of one run.
var suiteRows = []metric{
	{Name: "failed_share", Unit: "ratio", Better: "lower"},
	{Name: "v_eff_err_pct", Unit: "%", Better: "lower"},
	{Name: "nproc_wall_ratio", Unit: "ratio", Better: "lower"},
}

// child runs one workload in a fresh process and returns its result line.
func child(ctx context.Context, cfg config, name string, trace int, log io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
		"-out", cfg.outDir}
	if cfg.tiny {
		args = append(args, "-scale", "tiny")
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stdout, cmd.Stderr = &out, log
	runErr := cmd.Run()

	// The result is the last line; what precedes it is the child's log.
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" && !strings.HasPrefix(last, "  ") {
			fmt.Fprintln(log, last)
		}
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", name, runErr)
		}
		return res, fmt.Errorf("%s: no result line: %w", name, err)
	}
	if runErr != nil {
		return res, fmt.Errorf("%s: %w", name, runErr)
	}
	return res, nil
}

// runSuite runs every workload untraced and traced and prints the tables.
func runSuite(ctx context.Context, cfg config, stdout io.Writer) (suite, error) {
	s := suite{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: cfg.seed, Seconds: cfg.seconds,
		EndToEnd: map[string]map[string]value{}, PerLayer: map[string]map[string]value{},
		Derived: map[string]value{},
	}
	failed := 0
	for _, w := range workloads {
		e2e, err := child(ctx, cfg, w.name, 0, stdout)
		if err != nil {
			return s, err
		}
		layers, err := child(ctx, cfg, w.name, 1, stdout)
		if err != nil {
			return s, err
		}
		s.EndToEnd[w.name], s.PerLayer[w.name] = e2e.Metrics, layers.Metrics
		failed += e2e.Failed + layers.Failed
		e2e.Metrics["failed_share"] = value{float64(e2e.Failed+layers.Failed) / float64(e2e.Attempted+layers.Attempted), "ratio"}
		e2e.Metrics["v_eff_err_pct"] = layers.Metrics["model.v_eff_err_pct"]
		e2e.Metrics["nproc_wall_ratio"] = value{e2e.Metrics["wall_s"].Value / e2e.Metrics["wall_1p_s"].Value, "ratio"}
	}
	if single, rec := s.EndToEnd["bulk_single"]["wall_s"], s.EndToEnd["bulk_recorders"]["wall_s"]; single.Value > 0 {
		s.Derived["obs.recorders_on_ratio"] = value{rec.Value / single.Value, "ratio"}
	}

	fmt.Fprintf(stdout, "\n%s, GOMAXPROCS %d, %d CPUs, seed %d, %g s per run\n",
		s.GoVersion, s.GOMAXPROCS, s.NumCPU, s.Seed, s.Seconds)
	printTable(stdout, "end-to-end (untraced repetitions, medians)", append(endToEnd[:len(endToEnd):len(endToEnd)], suiteRows...), s.EndToEnd)
	printTable(stdout, "per-layer (traced run; 0 where the workload's public surface does not expose the count)", perLayer, s.PerLayer)
	for _, name := range sortedKeys(s.Derived) {
		fmt.Fprintf(stdout, "%-34s %14.4f %s\n", name, s.Derived[name].Value, s.Derived[name].Unit)
	}

	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return s, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return s, err
	}
	path := filepath.Join(cfg.outDir, "results.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return s, err
	}
	fmt.Fprintf(stdout, "results in %s, traces in %s\n", path, filepath.Join(cfg.outDir, "<workload>.trace.json"))
	if failed > 0 {
		return s, fmt.Errorf("%d operations failed their checks", failed)
	}
	return s, nil
}

// printTable prints one row per metric, one column per workload.
func printTable(w io.Writer, title string, ms []metric, by map[string]map[string]value) {
	fmt.Fprintf(w, "\n%s\n%-34s %-6s", title, "metric", "unit")
	for _, wl := range workloads {
		fmt.Fprintf(w, " %14s", wl.name)
	}
	fmt.Fprintln(w)
	for _, m := range ms {
		fmt.Fprintf(w, "%-34s %-6s", m.Name, m.Unit)
		for _, wl := range workloads {
			fmt.Fprintf(w, " %14.6g", by[wl.name][m.Name].Value)
		}
		fmt.Fprintln(w)
	}
}
