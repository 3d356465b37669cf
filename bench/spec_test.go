package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// TestSpecMatchesCommittedFile keeps BENCHMARK.json and the metric tables
// from drifting apart: regenerate with `go run -C bench repro/bench -spec`.
func TestSpecMatchesCommittedFile(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, specJSON()) {
		t.Error("BENCHMARK.json differs from what -spec prints")
	}
}

func TestSpecWithinContractLimits(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: bad unit %q", name, unit)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: bad direction %q", name, better)
		}
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		check(w.name, "", "")
		if len(w.why) > 200 || bytes.ContainsRune([]byte(w.why), '\n') {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range perLayer {
		check(m.Name, m.Unit, m.Better)
	}
	if len(specJSON()) > 64<<10 {
		t.Error("BENCHMARK.json over 64 KiB")
	}
}
