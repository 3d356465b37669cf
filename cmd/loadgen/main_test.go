package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
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

// TestNegativeFlagsRefused: a negative count, size, time or rate exits 1
// with an error naming the field before any host exists (zero keeps
// selecting the default). Each used to be dropped silently: -window -5000
// ran the default window and exited 0.
func TestNegativeFlagsRefused(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-clients", "-1"}, "Clients -1 is negative"},
		{[]string{"-servers", "-2"}, "Servers -2 is negative"},
		{[]string{"-flows", "-3"}, "Flows -3 is negative"},
		{[]string{"-requests", "-1"}, "Requests -1 is negative"},
		{[]string{"-bulk", "-bulkwrite", "-5"}, "BulkWrite -5KB is negative"},
		{[]string{"-bulk", "-duration", "-1ms"}, "Duration -1.000ms is negative"},
		{[]string{"-think", "-1ms"}, "Think -1.000ms is negative"},
		{[]string{"-openloop", "-rate", "-10"}, "Rate -10 is negative"},
		{[]string{"-window", "-5000"}, "Window -5000KB is negative"},
		{[]string{"-udpthink", "-1us"}, "UDPServerThink -1.000us is negative"},
		{[]string{"-stagger", "-1ms"}, "Stagger -1.000ms is negative"},
		{[]string{"-queuecap", "-1"}, "QueueCap -1KB is negative"},
		{[]string{"-ecnthresh", "-1"}, "ECNThreshold -1KB is negative"},
		{[]string{"-netmem", "-1"}, "-netmem -1 KB is negative"},
		{[]string{"-openloop", "-rate", "+Inf"}, "Rate +Inf is not finite"},
		{[]string{"-openloop", "-rate", "1e-300"}, "Rate 1e-300: its mean interarrival does not fit units.Time"},
		{[]string{"-udpfrac", "NaN"}, "UDPFrac NaN is not finite"},
	} {
		var out, errb bytes.Buffer
		if status := run(append(append([]string{}, tiny...), tc.args...), &out, &errb); status != 1 {
			t.Errorf("%v: status %d, want 1", tc.args, status)
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%v: stderr %q, want it to say %s", tc.args, errb.String(), tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: a refused run printed %q", tc.args, out.String())
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

// TestArtifactFiles writes loadgen's four artifact files from a small bulk
// run: each is non-empty, the JSON ones parse, and a second run writes the
// same bytes.
func TestArtifactFiles(t *testing.T) {
	flags := []string{"series", "series-csv", "netobs-json", "netobs-chrome"}
	runOnce := func() [][]byte {
		dir := t.TempDir()
		args := []string{"-flows", "4", "-clients", "2", "-servers", "1", "-bulk", "-duration", "5ms"}
		for _, f := range flags {
			args = append(args, "-"+f, filepath.Join(dir, f))
		}
		var out, errb bytes.Buffer
		if status := run(args, &out, &errb); status != 0 {
			t.Fatalf("status %d: %s", status, errb.String())
		}
		var files [][]byte
		for _, f := range flags {
			b, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil || len(b) == 0 {
				t.Fatalf("-%s: %d bytes (%v)", f, len(b), err)
			}
			if f != "series-csv" && !json.Valid(b) {
				t.Errorf("-%s: not JSON", f)
			}
			files = append(files, b)
		}
		return files
	}
	first, second := runOnce(), runOnce()
	for i, f := range flags {
		if !bytes.Equal(first[i], second[i]) {
			t.Errorf("-%s: two runs wrote different bytes", f)
		}
	}
}

// TestSeriesIntervalChecked: -series-interval-us 0 or a negative value used
// to fall back to the 100 µs default without a word. A value that is not a
// positive whole number of µs fitting a virtual time is now refused with
// exit status 2 before anything runs, and an accepted one is the series'
// sampling interval.
func TestSeriesIntervalChecked(t *testing.T) {
	series := func(interval string) (path string, status int, stderr string) {
		path = filepath.Join(t.TempDir(), "s.json")
		var out, errb bytes.Buffer
		args := []string{"-flows", "4", "-clients", "2", "-servers", "1", "-bulk", "-duration", "5ms",
			"-series", path, "-series-interval-us", interval}
		return path, run(args, &out, &errb), errb.String()
	}
	for _, v := range []string{"0", "-5", "1.5", "9223372036854776"} {
		path, status, stderr := series(v)
		if status != 2 {
			t.Errorf("-series-interval-us %s: status %d, want 2", v, status)
		}
		if want := `invalid value "` + v + `" for flag -series-interval-us`; !strings.Contains(stderr, want) {
			t.Errorf("-series-interval-us %s: stderr %q, want it to say %s", v, stderr, want)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("-series-interval-us %s: a refused run wrote its series (stat: %v)", v, err)
		}
	}
	path, status, stderr := series("50")
	if status != 0 {
		t.Fatalf("-series-interval-us 50: status %d: %s", status, stderr)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		IntervalNs int64 `json:"interval_ns"`
	}
	if err := json.Unmarshal(b, &s); err != nil || s.IntervalNs != 50_000 {
		t.Errorf("-series-interval-us 50: series interval_ns %d (%v), want 50000", s.IntervalNs, err)
	}
}

// TestArtifactMatrix regenerates the loadgen row of the recorders'
// artifact matrix (cmd/testdata/artifacts.sha256, c/): an 8-flow bulk run
// with netobs on and its four file flags. Every file and stdout must hash
// to its committed value, so a change to any recorder dump is deliberate
// and lands with the list.
func TestArtifactMatrix(t *testing.T) {
	dir := t.TempDir()
	files := [][2]string{{"series", "s.json"}, {"series-csv", "s.csv"}, {"netobs-json", "n.json"}, {"netobs-chrome", "c.json"}}
	args := []string{"-flows", "8", "-bulk", "-netobs"}
	for _, f := range files {
		args = append(args, "-"+f[0], filepath.Join(dir, f[1]))
	}
	var out, errb bytes.Buffer
	if status := run(args, &out, &errb); status != 0 || errb.Len() != 0 {
		t.Fatalf("status %d, stderr %q", status, errb.String())
	}
	got := map[string][]byte{"c/stdout": out.Bytes()}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(dir, f[1]))
		if err != nil {
			t.Fatal(err)
		}
		got["c/"+f[1]] = b
	}
	list, err := os.ReadFile(filepath.Join("..", "testdata", "artifacts.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(list), "\n") {
		if sum, name, ok := strings.Cut(line, "  "); ok && !strings.HasPrefix(line, "#") && strings.HasPrefix(name, "c/") {
			want[name] = sum
		}
	}
	if len(want) != len(got) {
		t.Errorf("committed c/ files %v, the run wrote %d", want, len(got))
	}
	for name, b := range got {
		if sum := sha256.Sum256(b); want[name] != hex.EncodeToString(sum[:]) {
			t.Errorf("%s: sha256 %x, committed %q", name, sum, want[name])
		}
	}
}
