package exp

import (
	"fmt"
	"strings"

	"repro/internal/cab"
	"repro/internal/load"
	"repro/internal/socket"
	"repro/internal/units"
)

// LoadBench is the many-flow workload baseline (BENCH_load.json): the
// aggregate report of a 256-flow mixed TCP/UDP open-loop scenario plus the
// fairness demonstration pair (the same netmem-starved incast run without
// and with the arbiter). Everything inside is a deterministic function of
// the scenarios, so unchanged code regenerates the file byte-for-byte; the
// gate allows small relative drift on the throughput and latency
// leaves and none on the structure, counters, or order digests.
type LoadBench struct {
	Mixed        *load.Report `json:"mixed_256"`
	FairBaseline *load.Report `json:"fair_baseline"`
	FairArbiter  *load.Report `json:"fair_arbiter"`
}

// loadBenchMixed is the steady-state many-flow scenario: 256 mixed
// TCP/UDP flows, open-loop Poisson arrivals, heavy-tailed sizes, netmem
// arbiter on.
func loadBenchMixed() load.Scenario {
	return load.Scenario{
		Name:     "bench-mixed-256",
		Seed:     42,
		Clients:  4,
		Servers:  2,
		Flows:    256,
		UDPFrac:  0.25,
		Mode:     socket.ModeSingleCopy,
		Requests: 2,
		OpenLoop: true,
		Rate:     2000,
		Stagger:  500 * units.Microsecond,
		Arbiter:  &cab.ArbConfig{},
	}
}

// loadBenchFair is the netmem-starved incast from the fairness acceptance
// test: 8 TCP elephants vs 3 slow-reader UDP blasters into one small
// adaptor memory. arb toggles the arbiter.
func loadBenchFair(arb bool) load.Scenario {
	s := load.Scenario{
		Name:           "bench-fair",
		Seed:           5,
		Clients:        11,
		Servers:        1,
		Flows:          11,
		UDPFrac:        0.27,
		Mode:           socket.ModeSingleCopy,
		Bulk:           true,
		Duration:       120 * units.Millisecond,
		Warmup:         20 * units.Millisecond,
		Stagger:        60 * units.Millisecond,
		BulkWrite:      16 * units.KB,
		UDPServerThink: 45 * units.Millisecond,
		Window:         16 * units.KB,
		CABConfig:      cabMem(512 * units.KB),
	}
	if arb {
		s.Name = "bench-fair-arb"
		s.Arbiter = &cab.ArbConfig{}
	}
	return s
}

// runLoad runs one many-flow scenario and fails it on any flow error: the
// baselines only commit healthy runs.
func runLoad(s load.Scenario) (*load.Report, error) {
	rep, err := load.Run(s)
	if err != nil {
		return nil, err
	}
	if rep.Errors != 0 {
		return nil, fmt.Errorf("load scenario %s: %d errors (%s)", rep.Name, rep.Errors, rep.FirstError)
	}
	return rep, nil
}

// RunLoadBench executes the workload baselines.
func RunLoadBench() (LoadBench, error) {
	var b LoadBench
	var err error
	if b.Mixed, err = runLoad(loadBenchMixed()); err != nil {
		return b, err
	}
	// The arbiter-less fairness baseline is exempt from the error check:
	// starvation-induced connection timeouts are the phenomenon it
	// demonstrates.
	if b.FairBaseline, err = load.Run(loadBenchFair(false)); err != nil {
		return b, err
	}
	b.FairArbiter, err = runLoad(loadBenchFair(true))
	return b, err
}

// Format renders a human summary.
func (b LoadBench) Format() string {
	var sb strings.Builder
	row := func(r *load.Report) {
		fmt.Fprintf(&sb, "  %-16s flows=%-4d goodput p50/max %7.2f/%7.2f Mb/s  lat p50/p99 %8.1f/%8.1f us  jain=%.4f starved=%d drops=%d\n",
			r.Name, r.Flows, r.GoodputP50Mbps, r.GoodputMaxMbps, r.LatP50Us, r.LatP99Us, r.Jain, r.Starved, r.Drops)
	}
	sb.WriteString("Many-flow workload engine (internal/load):\n")
	row(b.Mixed)
	row(b.FairBaseline)
	row(b.FairArbiter)
	return sb.String()
}
