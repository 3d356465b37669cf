package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tiny is a run small enough for a unit test.
var tiny = []string{"-flows", "8", "-clients", "2", "-servers", "1", "-requests", "1"}

// TestUnknownModeRejected: an unknown -mode exits 2 with a message naming
// the accepted values, before anything runs or any profile is started.
func TestUnknownModeRejected(t *testing.T) {
	cpu := filepath.Join(t.TempDir(), "cpu.pprof")
	var out, errb bytes.Buffer
	if status := run([]string{"-mode", "single", "-cpuprofile", cpu}, &out, &errb); status != 2 {
		t.Errorf("status %d, want 2", status)
	}
	if want := `unknown -mode "single" (want single_copy, unmodified)`; !strings.Contains(errb.String(), want) {
		t.Errorf("stderr %q, want it to say %s", errb.String(), want)
	}
	if out.Len() != 0 {
		t.Errorf("a refused run printed %q", out.String())
	}
	if _, err := os.Stat(cpu); !os.IsNotExist(err) {
		t.Errorf("a refused run created its CPU profile (stat: %v)", err)
	}
}

// TestFailedRunWritesProfiles: a run that load.Run refuses exits 1 and
// still leaves complete -cpuprofile and -memprofile files; they used to be
// left empty or unwritten because the exit skipped the deferred writers.
func TestFailedRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var out, errb bytes.Buffer
	args := append([]string{"-cc", "vegas", "-cpuprofile", cpu, "-memprofile", mem}, tiny...)
	if status := run(args, &out, &errb); status != 1 {
		t.Errorf("status %d, want 1", status)
	}
	if !strings.Contains(errb.String(), `bad CC "vegas"`) {
		t.Errorf("stderr %q, want the load error", errb.String())
	}
	for _, path := range []string{cpu, mem} {
		if b, err := os.ReadFile(path); err != nil || len(b) == 0 {
			t.Errorf("%s after a failed run: %d bytes (%v); want a written profile", filepath.Base(path), len(b), err)
		}
	}
}

// TestModesRun: each accepted -mode runs its stack, and two invocations
// with the same flags print the same report.
func TestModesRun(t *testing.T) {
	for _, mode := range []string{"single_copy", "unmodified"} {
		var first string
		for i := 0; i < 2; i++ {
			var out, errb bytes.Buffer
			if status := run(append([]string{"-mode", mode}, tiny...), &out, &errb); status != 0 {
				t.Fatalf("-mode %s: status %d: %s", mode, status, errb.String())
			}
			if !strings.Contains(out.String(), "mode="+mode) || !strings.Contains(out.String(), "order_digest=") {
				t.Fatalf("-mode %s: report %q", mode, out.String())
			}
			if i == 0 {
				first = out.String()
			} else if out.String() != first {
				t.Fatalf("-mode %s: two runs differ:\n%s\n%s", mode, first, out.String())
			}
		}
	}
}

// TestUnwritableProfileFails: a successful run whose heap profile cannot
// be written exits 1, not 0.
func TestUnwritableProfileFails(t *testing.T) {
	mem := filepath.Join(t.TempDir(), "missing", "mem.pprof")
	var out, errb bytes.Buffer
	if status := run(append([]string{"-memprofile", mem}, tiny...), &out, &errb); status != 1 {
		t.Errorf("status %d, want 1: %s", status, errb.String())
	}
	if !strings.Contains(errb.String(), "mem.pprof") || !strings.Contains(out.String(), "order_digest=") {
		t.Errorf("stdout %q, stderr %q; want the report, then the profile error", out.String(), errb.String())
	}
}
