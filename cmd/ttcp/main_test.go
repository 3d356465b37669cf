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

	"repro/internal/core"
)

// TestEnumFlagsRejected: an unknown value for an enumerated flag used to run
// a default (an unknown -mode ran the single-copy stack, -machine ran the
// Alpha 400, -proto ran TCP). Each is now refused with exit status 2 and a
// message naming the flag and what it accepts.
func TestEnumFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-mode", "unmod"}, `unknown -mode "unmod" (want single, unmodified, raw)`},
		{[]string{"-proto", "sctp"}, `unknown -proto "sctp" (want tcp, udp)`},
		{[]string{"-machine", "alpha500"}, `unknown -machine "alpha500" (want alpha400, alpha300)`},
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

// TestEnumFlagsAccepted: every accepted value still runs, on a tiny
// transfer.
func TestEnumFlagsAccepted(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-mode", "single", "-proto", "tcp", "-machine", "alpha400"}, "ttcp (single stack, Alpha 3000/400"},
		{[]string{"-mode", "unmodified", "-machine", "alpha300"}, "ttcp (unmodified stack, Alpha 3000/300"},
		{[]string{"-mode", "raw"}, "ttcp (raw stack"},
		// The default 64K write is too long for one datagram (see
		// TestOversizeUDPFails).
		{[]string{"-proto", "udp", "-mode", "unmodified", "-size", "32K"}, "ttcp -u (unmodified stack"},
	} {
		var out, errb bytes.Buffer
		args := append([]string{"-total", "256K"}, tc.args...)
		if status := run(args, &out, &errb); status != 0 {
			t.Errorf("%v: status %d: %s", tc.args, status, errb.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%v: output %q, want it to start a %q report", tc.args, out.String(), tc.want)
		}
	}
}

// TestSizeFlagsChecked: -size, -total and -window took any integer. A zero
// size or a negative window never ended, a negative or overflowing size
// panicked outside the sender's address space, a zero raw packet panicked
// the adaptor, a negative total moved nothing and exited 0, and a size
// that is not a number exited 1. Each is now refused with exit status 2
// before anything runs; a size the flags accept still runs.
func TestSizeFlagsChecked(t *testing.T) {
	for _, args := range [][]string{
		{"-size", "0"},
		{"-proto", "udp", "-size", "0"},
		{"-mode", "raw", "-size", "0"},
		{"-size", "-4K"},
		{"-size", "99999999999999M"},
		{"-size", "foo"},
		{"-total", "-1M"},
		{"-total", "0"},
		{"-window", "-5K"},
		{"-window", "0"},
	} {
		var out, errb bytes.Buffer
		if status := run(args, &out, &errb); status != 2 {
			t.Errorf("%v: status %d, want 2", args, status)
		}
		if want := `invalid value "` + args[len(args)-1] + `" for flag ` + args[len(args)-2]; !strings.Contains(errb.String(), want) {
			t.Errorf("%v: stderr %q, want it to say %s", args, errb.String(), want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: a refused run printed %q", args, out.String())
		}
	}
	var out, errb bytes.Buffer
	if status := run([]string{"-size", "16k", "-total", "256K", "-window", "64K"}, &out, &errb); status != 0 {
		t.Fatalf("status %d: %s", status, errb.String())
	}
	if want := "16KB writes, 64KB window"; !strings.Contains(out.String(), want) {
		t.Errorf("output %q, want it to say %s", out.String(), want)
	}
}

// TestOversizeUDPFails: a 64 KB UDP write is longer than one IPv4 datagram
// carries. The run used to hang, its sender waiting on a datagram the
// stack had refused; now it exits with status 1 and the refusal.
func TestOversizeUDPFails(t *testing.T) {
	for _, mode := range []string{"single", "unmodified"} {
		var out, errb bytes.Buffer
		args := []string{"-proto", "udp", "-mode", mode, "-size", "64K", "-total", "256K"}
		if status := run(args, &out, &errb); status != 1 {
			t.Errorf("%v: status %d, want 1", args, status)
		}
		if want := "udp send of 64KB datagrams: tcpip: datagram too long"; !strings.Contains(errb.String(), want) {
			t.Errorf("%v: stderr %q, want it to say %s", args, errb.String(), want)
		}
	}
}

// TestAuditWithoutTouches: UDP and raw-HIPPI runs record no data touches,
// so -audit used to print an empty table headed "flow 0". It now says that
// the path records no data touches, and the run still succeeds.
func TestAuditWithoutTouches(t *testing.T) {
	for _, args := range [][]string{
		{"-proto", "udp", "-size", "32K", "-total", "1M", "-audit"},
		{"-mode", "raw", "-total", "256K", "-audit"},
	} {
		var out, errb bytes.Buffer
		if status := run(args, &out, &errb); status != 0 {
			t.Errorf("%v: status %d: %s", args, status, errb.String())
		}
		if want := "data-touch audit: this path records no data touches\n"; !strings.Contains(out.String(), want) {
			t.Errorf("%v: output %q, want it to say %q", args, out.String(), want)
		}
		if strings.Contains(out.String(), "per-byte") {
			t.Errorf("%v: printed an empty audit table: %q", args, out.String())
		}
	}
}

// TestArtifactFiles writes every artifact file of the table in one run:
// each is non-empty, each JSON one parses, and a second run writes the same
// bytes and prints the same report.
func TestArtifactFiles(t *testing.T) {
	runOnce := func() (map[string][]byte, string) {
		dir := t.TempDir()
		args := []string{"-total", "256K", "-audit", "-stats", "-critpath", "-netobs"}
		for _, a := range core.Artifacts {
			args = append(args, "-"+a.Flag, filepath.Join(dir, a.Flag))
		}
		var out, errb bytes.Buffer
		if status := run(args, &out, &errb); status != 0 {
			t.Fatalf("status %d: %s", status, errb.String())
		}
		files := map[string][]byte{}
		for _, a := range core.Artifacts {
			b, err := os.ReadFile(filepath.Join(dir, a.Flag))
			if err != nil || len(b) == 0 {
				t.Fatalf("-%s: %d bytes (%v)", a.Flag, len(b), err)
			}
			if a.Flag != "profile-out" && a.Flag != "series-csv" && !json.Valid(b) {
				t.Errorf("-%s: not JSON", a.Flag)
			}
			files[a.Flag] = b
		}
		return files, out.String()
	}
	first, out1 := runOnce()
	second, out2 := runOnce()
	if out1 != out2 {
		t.Error("two runs printed different reports")
	}
	for flag, b := range first {
		if !bytes.Equal(b, second[flag]) {
			t.Errorf("-%s: two runs wrote different bytes", flag)
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
		args := []string{"-total", "256K", "-series", path, "-series-interval-us", interval}
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

// TestArtifactMatrix regenerates the ttcp rows of the recorders' artifact
// matrix (cmd/testdata/artifacts.sha256): a 2 MB transfer with every
// recorder on and all 11 file flags, clean (a/) and dropping every 13th
// frame (b/). Every file and stdout must hash to its committed value, so a
// change to any recorder dump is deliberate and lands with the list.
func TestArtifactMatrix(t *testing.T) {
	files := [][2]string{
		{"trace", "t.json"}, {"metrics", "m.json"}, {"profile-out", "p.folded"}, {"profile-json", "p.json"},
		{"series", "s.json"}, {"series-csv", "s.csv"}, {"ledger", "l.json"}, {"flightrec", "f.json"},
		{"critpath-chrome", "c.json"}, {"netobs-json", "n.json"}, {"netobs-chrome", "nc.json"},
	}
	got := map[string][]byte{}
	for set, fault := range map[string][]string{"a": nil, "b": {"-fault", "drop:every=13,min=1000"}} {
		dir := t.TempDir()
		args := append([]string{"-total", "2M", "-audit", "-stats", "-critpath", "-netobs"}, fault...)
		for _, f := range files {
			args = append(args, "-"+f[0], filepath.Join(dir, f[1]))
		}
		var out, errb bytes.Buffer
		if status := run(args, &out, &errb); status != 0 || errb.Len() != 0 {
			t.Fatalf("%s: status %d, stderr %q", set, status, errb.String())
		}
		got[set+"/stdout"] = out.Bytes()
		for _, f := range files {
			b, err := os.ReadFile(filepath.Join(dir, f[1]))
			if err != nil {
				t.Fatal(err)
			}
			got[set+"/"+f[1]] = b
		}
	}
	list, err := os.ReadFile(filepath.Join("..", "testdata", "artifacts.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(list), "\n") {
		if sum, name, ok := strings.Cut(line, "  "); ok && !strings.HasPrefix(line, "#") && (strings.HasPrefix(name, "a/") || strings.HasPrefix(name, "b/")) {
			want[name] = sum
		}
	}
	if len(want) != len(got) {
		t.Errorf("committed a/ and b/ files %v, the runs wrote %d", want, len(got))
	}
	for name, b := range got {
		if sum := sha256.Sum256(b); want[name] != hex.EncodeToString(sum[:]) {
			t.Errorf("%s: sha256 %x, committed %q", name, sum, want[name])
		}
	}
}
