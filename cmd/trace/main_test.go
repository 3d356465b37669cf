package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/load"
)

// TestBadFlagsRejected: a bad -dir or -host, a negative -n, a -flow that is
// no port, or -netobs without -chrome, exits 2 with a one-line reason
// before anything runs.
func TestBadFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-dir", "sideways"}, `trace: bad -dir "sideways" (want in, out, or both)`},
		{[]string{"-host", "Q"}, `trace: bad -host "Q" (want A, B, or both)`},
		{[]string{"-netobs", "dump.json"}, "trace: -netobs needs -chrome <out.json>"},
		{[]string{"-n", "many"}, `invalid value "many" for flag -n`},
		{[]string{"-n", "-5"}, "trace: bad -n -5 (want 0 or more lines)"},
		{[]string{"-flow", "-3"}, "trace: bad -flow -3 (want a port, 0-65535; 0 = all)"},
		{[]string{"-flow", "65536"}, "trace: bad -flow 65536 (want a port, 0-65535; 0 = all)"},
	} {
		var out, errb bytes.Buffer
		if status := run(tc.args, &out, &errb); status != 2 {
			t.Errorf("%v: status %d, want 2", tc.args, status)
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%v: stderr %q, want it to say %s", tc.args, errb.String(), tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: a refused run printed %q", tc.args, out.String())
		}
	}
}

// TestDefaultRunPrintsHandshake: the default run traces the sender's
// stack, starting with the three-way handshake, then descriptor-bearing
// data segments.
func TestDefaultRunPrintsHandshake(t *testing.T) {
	var out, errb bytes.Buffer
	if status := run(nil, &out, &errb); status != 0 {
		t.Fatalf("status %d: %s", status, errb.String())
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("%d lines: %q", len(lines), out.String())
	}
	for i, want := range []string{"out 10.0.0.1 > 10.0.0.2 tcp 10001>5001 [S] ", "in  10.0.0.2 > 10.0.0.1 tcp 5001>10001 [S.] ",
		"out 10.0.0.1 > 10.0.0.2 tcp 10001>5001 [.] ", "(descriptor)"} {
		if !strings.Contains(lines[i], want) {
			t.Errorf("line %d %q, want it to contain %q", i, lines[i], want)
		}
	}
}

// TestJSONLines: under -json every stdout line is one event object naming
// its host, and the truncation note goes to stderr.
func TestJSONLines(t *testing.T) {
	var out, errb bytes.Buffer
	if status := run([]string{"-n", "10", "-host", "both", "-dir", "in", "-json"}, &out, &errb); status != 0 {
		t.Fatalf("status %d: %s", status, errb.String())
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("%d lines, want 10", len(lines))
	}
	hosts := map[string]bool{}
	for _, l := range lines {
		var ev struct {
			Host string
			Dir  int
			TCP  *struct{ SPort, DPort int }
		}
		if err := json.Unmarshal([]byte(l), &ev); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
		if ev.TCP == nil {
			t.Errorf("line %q: no TCP header", l)
		}
		hosts[ev.Host] = true
	}
	if !hosts["A"] || !hosts["B"] {
		t.Errorf("hosts %v, want both A and B", hosts)
	}
	if !strings.HasPrefix(errb.String(), "... (") {
		t.Errorf("stderr %q, want the truncation note", errb.String())
	}
}

// TestNetObsRoundTrip: -netobs re-renders a saved transport-dynamics dump
// (loadgen -netobs-json) as the same Chrome counter tracks loadgen's
// -netobs-chrome writes from the live recorder.
func TestNetObsRoundTrip(t *testing.T) {
	rep, err := load.Run(load.Scenario{Flows: 4, Bulk: true, Recorders: core.Recorders{NetObs: true}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dump, chrome := filepath.Join(dir, "dump.json"), filepath.Join(dir, "chrome.json")
	snap := rep.Testbed.NetObs.Snapshot()
	if err := os.WriteFile(dump, snap.JSON(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if status := run([]string{"-netobs", dump, "-chrome", chrome}, &out, &errb); status != 0 {
		t.Fatalf("status %d: %s", status, errb.String())
	}
	got, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rep.Testbed.NetObs.Chrome()) {
		t.Error("re-rendered Chrome tracks differ from the live recorder's")
	}
	if want := fmt.Sprintf("wrote %s (%d flows, %d wires)\n", chrome, len(snap.Flows), len(snap.Wires)); errb.String() != want {
		t.Errorf("stderr %q, want %q", errb.String(), want)
	}
	if status := run([]string{"-netobs", filepath.Join(dir, "missing.json"), "-chrome", chrome}, &out, &errb); status != 1 {
		t.Errorf("missing dump: status %d, want 1", status)
	}
}
