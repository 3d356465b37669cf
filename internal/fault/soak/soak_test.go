package soak

import (
	"bytes"
	"testing"
)

// TestSoakMatrix runs the full adversarial suite: every case must satisfy
// all four invariants (byte-exact delivery, zero leaks, forward progress,
// counter conservation).
func TestSoakMatrix(t *testing.T) { runMatrix(t, Matrix()) }

// runMatrix runs each case as a subtest and reports every violated
// invariant, with the case's fates and flight recorder on failure.
func runMatrix(t *testing.T, cases []Case) {
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			o := Run(c)
			for _, f := range o.Failures {
				t.Errorf("%s", f)
			}
			if c.Plan != "" && o.Report == "fault injection: none fired" {
				t.Error("vacuous: the plan injected nothing")
			}
			if t.Failed() {
				t.Logf("delivered %v; %s", o.Delivered, o.Report)
				for i, fl := range o.Flows {
					t.Logf("flow %d: delivered=%v snd=%v rcv=%v complete=%v",
						i, fl.Delivered, fl.SndErr, fl.RcvErr, fl.Complete)
				}
				if o.FlightRec != nil {
					t.Logf("flight recorder:\n%s", o.FlightRec)
				}
			}
		})
	}
}

// TestSoakDeterminism: the same case run twice must reproduce its
// outcome's fingerprint byte for byte — the whole point of seeded
// injection. It covers both workload shapes of the soak matrix.
func TestSoakDeterminism(t *testing.T) {
	checkReplay(t, []Case{
		{Name: "det-tcp", Plan: "drop:every=13,min=200;corrupt:p=0.05,min=200", Seed: 99, Proto: "tcp"},
		{Name: "det-udp", Plan: "drop:p=0.1,min=1000;dup:every=6,min=1000", Seed: 99, Proto: "udp"},
	})
}

// TestRecoverDeterminism replays a healed partition and the reset cases
// (one side, both sides, and four flows under the arbiter, where a reset
// frees many flows' pages at once): recovery is part of the simulation,
// not a race against it.
func TestRecoverDeterminism(t *testing.T) {
	var cases []Case
	for _, c := range RecoverMatrix() {
		switch c.Name {
		case "partition-steady", "cabreset-sender", "cabreset-both", "cabreset-multiflow":
			cases = append(cases, c)
		}
	}
	if len(cases) != 4 {
		t.Fatalf("recover matrix no longer has the cases this test names: got %d of 4", len(cases))
	}
	checkReplay(t, cases)
}

// checkReplay runs each case twice and demands a clean first run and
// identical outcome fingerprints.
func checkReplay(t *testing.T, cases []Case) {
	t.Helper()
	for _, c := range cases {
		o1, o2 := Run(c), Run(c)
		if len(o1.Failures) > 0 {
			t.Fatalf("%s: %v", c.Name, o1.Failures)
		}
		if f1, f2 := o1.Fingerprint(), o2.Fingerprint(); f1 != f2 {
			t.Errorf("%s: replay diverged\nfirst:  %.400s\nsecond: %.400s", c.Name, f1, f2)
		}
	}
}

// TestSoakCatchesViolations: a plan that genuinely breaks an invariant
// must be reported, not absorbed — guards against a vacuously green suite.
func TestSoakCatchesViolations(t *testing.T) {
	// Dropping every data frame forever wedges the connection: the
	// progress invariant must trip.
	o := Run(Case{Name: "wedge", Plan: "drop:every=1,min=1000", Seed: 1, Proto: "tcp"})
	if len(o.Failures) == 0 {
		t.Fatal("total loss reported no invariant violation")
	}
}

// TestFiredCountersExported: fault counters appear in the telemetry
// snapshot under fault.<kind> when the plan contains the kind.
func TestFiredCountersExported(t *testing.T) {
	o := Run(Case{Name: "ctr", Plan: "drop:every=13,min=200", Seed: 3, Proto: "tcp"})
	if len(o.Failures) > 0 {
		t.Fatalf("%v", o.Failures)
	}
	if !bytes.Contains(o.MetricsJSON, []byte(`"fault.drop"`)) {
		t.Fatal("fault.drop counter missing from telemetry snapshot")
	}
}
