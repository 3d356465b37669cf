package exp

import (
	"fmt"
	"strings"

	"repro/internal/load"
	"repro/internal/obs/netobs"
)

// NetObsBench is the transport-dynamics baseline (BENCH_netobs.json): the
// congestion postmortems of the PR-5 fairness incast pair. The baseline
// run's starved elephants must come out netmem-starved (RTO fires against
// a memory-dropping receiver); the arbitrated run must come out all
// healthy. Everything inside is a deterministic function of the seeded
// scenarios, so the gate exact-diffs the file.
type NetObsBench struct {
	// Per-run one-line context, so a verdict flip is readable next to
	// the fairness numbers it explains.
	BaselineJain    float64 `json:"baseline_jain"`
	BaselineStarved int     `json:"baseline_starved"`
	ArbiterJain     float64 `json:"arbiter_jain"`
	ArbiterStarved  int     `json:"arbiter_starved"`

	Baseline *netobs.Postmortem `json:"fair_baseline"`
	Arbiter  *netobs.Postmortem `json:"fair_arbiter"`
}

// netObsPair runs the fairness incast pair with the transport-dynamics
// observatory on: the unarbitrated baseline (whose starvation errors are
// the phenomenon) and the arbitrated run (which must be clean).
func netObsPair() (base, arb *load.Report, err error) {
	s := loadBenchFair(false)
	s.Name = "netobs-fair"
	s.NetObs = true
	if base, err = load.Run(s); err != nil {
		return nil, nil, err
	}
	s = loadBenchFair(true)
	s.Name = "netobs-fair-arb"
	s.NetObs = true
	arb, err = runLoad(s)
	return base, arb, err
}

// RunNetObs executes the pair and returns both postmortems.
func RunNetObs() (NetObsBench, error) {
	rb, ra, err := netObsPair()
	if err != nil {
		return NetObsBench{}, err
	}
	return NetObsBench{
		BaselineJain: rb.Jain, BaselineStarved: rb.Starved, Baseline: rb.NetObs,
		ArbiterJain: ra.Jain, ArbiterStarved: ra.Starved, Arbiter: ra.NetObs,
	}, nil
}

// Format renders a human summary.
func (b NetObsBench) Format() string {
	var sb strings.Builder
	sb.WriteString("Transport-dynamics postmortems (internal/obs/netobs):\n")
	row := func(name string, jain float64, starved int, pm *netobs.Postmortem) {
		counts := map[string]int{}
		for i := range pm.Flows {
			counts[pm.Flows[i].Verdict]++
		}
		fmt.Fprintf(&sb, "  %-16s jain=%.4f starved=%d verdicts:", name, jain, starved)
		for _, v := range []string{netobs.VerdictHealthy, netobs.VerdictNetmemStarved,
			netobs.VerdictRTOBound, netobs.VerdictWindowBound, netobs.VerdictPortContended} {
			if counts[v] > 0 {
				fmt.Fprintf(&sb, " %s=%d", v, counts[v])
			}
		}
		sb.WriteByte('\n')
		sb.WriteString(indent(pm.Format(), "  "))
	}
	row("netobs-fair", b.BaselineJain, b.BaselineStarved, b.Baseline)
	row("netobs-fair-arb", b.ArbiterJain, b.ArbiterStarved, b.Arbiter)
	return sb.String()
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}
