package exp

import (
	"fmt"
	"testing"

	"repro/internal/load"
	"repro/internal/obs/netobs"
)

// TestNetObsIncastVerdicts machine-checks the postmortem against the
// fairness pair's ground truth: in the unarbitrated incast every starved
// elephant (zero delivered bytes after warmup) must be diagnosed as
// netmem-starved or RTO-bound, and in the arbitrated run every flow must
// come out healthy. This is the analyzer's acceptance test — the verdicts
// have to agree with what the goodput numbers independently prove.
func TestNetObsIncastVerdicts(t *testing.T) {
	rb, ra, err := netObsPair()
	if err != nil {
		t.Fatal(err)
	}
	if rb.NetObs == nil {
		t.Fatal("baseline run carried no postmortem")
	}
	clients := loadBenchFair(false).Clients
	// Client flow i runs on host C(i mod Clients) and its netobs row keys
	// on (host, client local port, server port).
	verdictOf := func(rep *load.Report, f load.FlowReport) string {
		host := fmt.Sprintf("C%d", f.ID%clients)
		return rep.NetObs.Verdict(host, f.Port, 5001)
	}
	starved := 0
	for _, f := range rb.PerFlow {
		if f.Proto != "tcp" {
			continue
		}
		v := verdictOf(rb, f)
		if v == "" {
			t.Errorf("baseline flow %d (port %d): no verdict row", f.ID, f.Port)
			continue
		}
		if f.Bytes == 0 {
			starved++
			if v != netobs.VerdictNetmemStarved && v != netobs.VerdictRTOBound {
				t.Errorf("starved flow %d diagnosed %q, want netmem-starved or RTO-bound", f.ID, v)
			}
		}
	}
	if starved == 0 {
		t.Fatal("vacuous: baseline starved no TCP flow")
	}

	for _, f := range ra.PerFlow {
		if f.Proto != "tcp" {
			continue
		}
		if v := verdictOf(ra, f); v != netobs.VerdictHealthy {
			t.Errorf("arbitrated flow %d diagnosed %q, want healthy", f.ID, v)
		}
	}
}

// TestNetObsBenchDeterminism pins the BENCH_netobs.json bytes: two
// RunNetObs invocations must render identically, which is what lets the
// gate exact-diff the committed baseline.
func TestNetObsBenchDeterminism(t *testing.T) {
	b := sameSeedTwice(t, RunNetObs)
	if b.BaselineStarved == 0 || b.ArbiterStarved != 0 {
		t.Fatalf("fairness shape: baseline starved=%d arbiter starved=%d",
			b.BaselineStarved, b.ArbiterStarved)
	}
}
