package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"repro/internal/obs/engine"
)

// procStart is as close to process start as Go code gets.
var procStart = time.Now()

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	// setupProbes is how many fresh child processes time the set-up:
	// numSetupProbes from main, 0 from the tests, whose binary is not
	// this program and which time the set-up in process instead.
	setupProbes int
	outDir      string
}

// numSetupProbes is how many times an untraced run sets up in a fresh
// process; setup_s is their median.
const numSetupProbes = 3

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// run is the state of one workload run: its inputs, the reference virtual
// results every repetition must reproduce, and the failures counted.
type run struct {
	cfg  config
	w    workload
	in   inputs
	log  io.Writer
	virt string
	res  result
}

// minReps is the fewest timed repetitions a full-size run reports a
// median of, whatever --seconds says.
const minReps = 5

func newRun(cfg config, log io.Writer) (*run, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	return &run{cfg: cfg, w: w, in: w.gen(cfg.seed, cfg.tiny), log: log,
		res: result{Correct: true, Metrics: map[string]value{}}}, nil
}

// rep runs one repetition and folds its checks into the run's result.
// Every repetition of a run must reproduce the first one's virtual
// results exactly: the simulator is deterministic, recorders or not.
func (r *run) rep(pr probes) (outcome, repCost) {
	var c repCost
	out := repeat(r.in, pr, func(f func()) { c = measure(f) })
	if r.virt == "" {
		r.virt = out.virt
	} else if out.virt != r.virt && len(out.errs) == 0 {
		out.fail("virtual results changed between repetitions:\n  first %s\n  now   %s", r.virt, out.virt)
		out.finish()
	}
	r.count(out)
	return out, c
}

func (r *run) count(out outcome) {
	r.res.Attempted += out.attempted
	r.res.Failed += out.failed
	for _, e := range out.errs {
		r.res.Correct = false
		fmt.Fprintf(r.log, "FAIL %s: %s\n", r.w.name, e)
	}
}

func (r *run) set(name string, v float64) {
	r.res.Metrics[name] = value{Value: v, Unit: unitOf(name)}
}

// plainReps adds untraced repetitions to costs until both at least min
// have run and d has passed: the traced run's base.
func (r *run) plainReps(costs []repCost, d time.Duration, min int, tr *tracer) []repCost {
	start := time.Now()
	for i := 0; i < min || time.Since(start) < d; i++ {
		sp := tr.begin("plain/" + strconv.Itoa(len(costs)))
		_, c := r.rep(probes{tr: tr})
		tr.end(sp)
		costs = append(costs, c)
	}
	return costs
}

// timedReps runs the end-to-end repetitions, alternating between the
// GOMAXPROCS the process started with and one P, until each side has at
// least min and d has passed. The simulator is one logical thread whose
// procs are goroutines: with a second P their hand-offs cross threads,
// which is what a user of cmd/ttcp or cmd/loadgen waits for and what a
// hand-off rewrite would save, while one P is the simulator's own work
// without it. Alternating gives both sides the same minutes of the host.
func (r *run) timedReps(d time.Duration, min int) (procs, oneP []repCost) {
	n := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(n)
	start := time.Now()
	for i := 0; i < 2*min || time.Since(start) < d; i++ {
		into, p := &procs, n
		if i%2 == 1 {
			into, p = &oneP, 1
		}
		runtime.GOMAXPROCS(p)
		_, c := r.rep(probes{})
		*into = append(*into, c)
	}
	return procs, oneP
}

// setupOnly is the child side of a set-up probe: everything a run does
// before its first timed repetition, then exit.
func (r *run) setupOnly() bool {
	r.rep(probes{})
	return r.res.Correct
}

// setupCost is what one set-up cost: wall time from process start to
// ready for the first timed repetition, and the peak resident set by then.
type setupCost struct{ wall, rssMB float64 }

// probeSetup sets up in fresh processes, because part of the set-up —
// runtime and package initialisation, the first growth of the heap —
// happens once per process and would hide inside a median taken in one.
// A probe is also what a user of cmd/ttcp or cmd/loadgen runs, one
// scenario in one process, so its peak resident set is the memory figure:
// the measuring process's own is half harness (collections between
// repetitions, two GOMAXPROCS settings) and read 69 or 81 MB by turns.
func (r *run) probeSetup(ctx context.Context) ([]setupCost, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("set-up probe: %w", err)
	}
	args := []string{"-workload", r.w.name, "-seed", strconv.FormatInt(r.cfg.seed, 10), "-setup-only"}
	if r.cfg.tiny {
		args = append(args, "-scale", "tiny")
	}
	var costs []setupCost
	for i := 0; i < r.cfg.setupProbes; i++ {
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stdout, cmd.Stderr = r.log, r.log
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		wall := time.Since(t0).Seconds()
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return nil, fmt.Errorf("set-up probe: no resource usage for the child")
		}
		costs = append(costs, setupCost{wall, maxRSSMB(ru)})
	}
	return costs, nil
}

// endToEndRun is the untraced run: set-up probes, a warm-up repetition,
// then timed repetitions with every recorder the workload does not name
// switched off.
func (r *run) endToEndRun(ctx context.Context) error {
	setups, err := r.probeSetup(ctx)
	if err != nil {
		return err
	}
	r.rep(probes{})
	if len(setups) == 0 {
		_, _, rss := selfUsage()
		setups = []setupCost{{time.Since(procStart).Seconds(), rss}}
	}

	min := minReps
	if r.cfg.tiny {
		min = 1
	}
	costs, oneP := r.timedReps(time.Duration(r.cfg.seconds*float64(time.Second)), min)
	r.checkAgainstPlain()

	r.set("wall_s", medianOf(costs, wallOf))
	r.set("cpu_s", medianOf(costs, repCost.cpu))
	r.set("wall_1p_s", medianOf(oneP, wallOf))
	r.set("mallocs", medianOf(costs, mallocsOf))
	r.set("alloc_mb", medianOf(costs, func(c repCost) float64 { return c.allocBytes })/1e6)
	var setupWall, setupRSS []float64
	for _, c := range setups {
		setupWall, setupRSS = append(setupWall, c.wall), append(setupRSS, c.rssMB)
	}
	r.set("peak_rss_mb", median(setupRSS))
	r.set("setup_s", median(setupWall))

	q1, med, q3 := quartiles(column(costs, wallOf))
	p1, pmed, p3 := quartiles(column(oneP, wallOf))
	fmt.Fprintf(r.log, "%s seed %d: GOMAXPROCS %d, n=%d, wall_s median %.4f (quartiles %.4f..%.4f); one P, n=%d, wall_1p_s median %.4f (quartiles %.4f..%.4f); set-up %v\n",
		r.w.name, r.cfg.seed, runtime.GOMAXPROCS(0), len(costs), med, q1, q3, len(oneP), pmed, p1, p3, setupWall)
	return nil
}

// checkAgainstPlain holds a recorders-on workload to the rule that
// recorders are virtual-time neutral: its virtual results must equal
// those of the same transfer with the recorders off.
func (r *run) checkAgainstPlain() {
	if r.in.bulk == nil || !r.in.bulk.recorders {
		return
	}
	plain := *r.in.bulk
	plain.recorders = false
	out := repeatBulk(plain, probes{}, func(f func()) { f() })
	if out.virt != r.virt {
		out.fail("recorders changed virtual results:\n  off %s\n  on  %s", out.virt, r.virt)
		out.finish()
	}
	r.count(out)
}

// tracedRun is the per-layer run: repetitions with the engine observer
// (and the virtual profiler on bulk workloads) under a CPU profile, with
// untraced repetitions before and after them as the base the overhead
// ratio is taken against, then the layer drivers. The base brackets the
// traced repetitions so that a slow minute on the host falls on both
// sides of the ratio.
func (r *run) tracedRun() error {
	tr := newTracer(r.w.name)
	root := tr.begin("workload/" + r.w.name)
	sp := tr.begin("warmup")
	r.rep(probes{tr: tr})
	tr.end(sp)

	budget := time.Duration(r.cfg.seconds * float64(time.Second))
	minPlain, minTraced := 3, 3
	if r.cfg.tiny {
		minPlain, minTraced = 1, 1
	}
	plain := r.plainReps(nil, budget/8, minPlain, tr)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var outs []outcome
	var traced []repCost
	var snaps []engine.Snapshot
	start := time.Now()
	for i := 0; i < minTraced || time.Since(start) < budget/2; i++ {
		o := engine.New()
		sp := tr.begin("rep/" + strconv.Itoa(i))
		out, c := r.rep(probes{tr: tr, obs: o, vprof: true})
		tr.end(sp)
		// Snapshot now: it closes the observer's last wall-clock slice.
		outs, traced, snaps = append(outs, out), append(traced, c), append(snaps, o.Snapshot())
	}
	pprof.StopCPUProfile()
	plain = r.plainReps(plain, budget/8, minPlain, tr)

	target := roundTarget
	if r.cfg.tiny {
		target = tinyRoundTarget
	}
	for _, d := range drivers {
		sp := tr.begin("drv/" + d.nsMetric())
		dr := runDriver(d, target)
		tr.end(sp)
		r.set(d.nsMetric(), dr.ns)
		if d.allocs {
			r.set(d.name+"_allocs", dr.allocs)
		}
	}
	tr.end(root)

	stacks, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	r.layerMetrics(outs, snaps, plain, traced, foldStacks(stacks))

	path, err := tr.write(r.cfg.outDir)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	// The raw profile, for `go tool pprof`, beside the trace.
	if err := os.WriteFile(filepath.Join(r.cfg.outDir, r.w.name+".cpu.pb.gz"), prof.Bytes(), 0o644); err != nil {
		return fmt.Errorf("profile file: %w", err)
	}
	fmt.Fprintf(r.log, "%s seed %d: %d plain and %d traced repetitions, trace in %s; self time by span:\n%s",
		r.w.name, r.cfg.seed, len(plain), len(traced), path, formatSelf(tr.spans))
	return nil
}

// layerMetrics fills in every per-layer metric of the traced run.
func (r *run) layerMetrics(outs []outcome, snaps []engine.Snapshot, plain, traced []repCost, f fold) {
	for _, m := range perLayer {
		if _, ok := r.res.Metrics[m.Name]; !ok {
			r.set(m.Name, 0) // not exposed on this workload, or a driver already set it
		}
	}
	for name, v := range outs[0].layer {
		r.set(name, v)
	}

	det := snaps[0].Det
	r.set("sim.events_total", float64(det.EventsTotal))
	r.set("sim.events_proc", float64(det.Events.Proc))
	r.set("sim.events_timer", float64(det.Events.Timer))
	r.set("sim.events_wire", float64(det.Events.Wire))
	r.set("sim.events_dma", float64(det.Events.DMA))
	r.set("sim.events_generic", float64(det.Events.Generic))
	r.set("sim.queue_depth_hw", float64(det.QueueDepthHW))
	r.set("sim.timer_pending_hw", float64(det.PendingHW.Timer))
	r.set("kern.charges", float64(det.KernCharges))
	r.set("kern.slices", float64(det.KernSlices))
	for i, s := range snaps {
		if s.Det != det {
			r.count(outcome{failed: 1, errs: []string{fmt.Sprintf(
				"engine counts changed between traced repetitions 0 and %d", i)}})
		}
	}
	perEvent := func(wall func(engine.KindCounts) int64, n int64) float64 {
		if n == 0 {
			return 0
		}
		var xs []float64
		for _, s := range snaps {
			xs = append(xs, float64(wall(s.Adv.WallNsByKind))/float64(n))
		}
		return median(xs)
	}
	r.set("sim.wall_ns_per_event_proc", perEvent(func(k engine.KindCounts) int64 { return k.Proc }, det.Events.Proc))
	r.set("sim.wall_ns_per_event_timer", perEvent(func(k engine.KindCounts) int64 { return k.Timer }, det.Events.Timer))
	r.set("sim.wall_ns_per_event_wire", perEvent(func(k engine.KindCounts) int64 { return k.Wire }, det.Events.Wire))

	plainWall := medianOf(plain, wallOf)
	r.set("sim.events_per_wall_s", float64(det.EventsTotal)/plainWall)
	r.set("sim.mallocs_per_event", medianOf(plain, mallocsOf)/float64(det.EventsTotal))
	r.set("trace.overhead_ratio", medianOf(traced, wallOf)/plainWall)
	user := medianOf(plain, func(c repCost) float64 { return c.user })
	sys := medianOf(plain, func(c repCost) float64 { return c.sys })
	if user+sys > 0 {
		r.set("runtime.sys_cpu_share", sys/(user+sys))
	}
	r.set("runtime.gc_cycles", medianOf(plain, func(c repCost) float64 { return c.gcCycles }))

	for l, v := range f.layer {
		r.set("host_cpu_share."+l, v)
	}
	for c, v := range f.flat {
		r.set("host_cpu_flat."+c, v)
	}
	r.set("host_cpu.samples", float64(f.samples))
}

// execute performs the run the command line asked for and prints its
// result as the last line of standard output.
func execute(ctx context.Context, cfg config, stdout io.Writer) error {
	r, err := newRun(cfg, stdout)
	if err != nil {
		return err
	}
	if cfg.trace {
		err = r.tracedRun()
	} else {
		err = r.endToEndRun(ctx)
	}
	if err != nil {
		return err
	}
	for _, name := range sortedKeys(r.res.Metrics) {
		v := r.res.Metrics[name]
		fmt.Fprintf(stdout, "  %-34s %18.6f %s\n", name, v.Value, v.Unit)
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !r.res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed their checks", r.w.name, r.res.Failed, r.res.Attempted)
	}
	return nil
}
