package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
)

// cli runs the command in dir and returns its exit status and output.
func cli(t *testing.T, dir string, args ...string) (status int, stdout, stderr string) {
	t.Helper()
	prev, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(prev)
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return status, out.String(), errb.String()
}

func baselines(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestBaselinesWrittenOnlyOnRequest: a plain -exp run prints and leaves the
// cwd alone (it used to drop the file there, -quick grid included, over a
// committed baseline); -benchdir writes; -quick is refused wherever a
// baseline is written or judged.
func TestBaselinesWrittenOnlyOnRequest(t *testing.T) {
	cwd := t.TempDir()
	status, out, _ := cli(t, cwd, "-exp", "touches", "-quick")
	if status != 0 || !strings.Contains(out, "oracle: ok") {
		t.Fatalf("-exp touches: status %d, output:\n%s", status, out)
	}
	if got := baselines(t, cwd); len(got) != 0 {
		t.Fatalf("plain -exp wrote %v into the cwd", got)
	}

	dir := t.TempDir()
	if status, _, errs := cli(t, cwd, "-exp", "touches", "-benchdir", dir); status != 0 {
		t.Fatalf("-benchdir: status %d: %s", status, errs)
	}
	if got := baselines(t, dir); len(got) != 1 {
		t.Fatalf("-benchdir wrote %v, want the one touches baseline", got)
	}
	if got := baselines(t, cwd); len(got) != 0 {
		t.Fatalf("-benchdir also wrote %v into the cwd", got)
	}

	for _, args := range [][]string{
		{"-exp", "touches", "-quick", "-benchdir", dir},
		{"-quick", "-check", "touches"},
	} {
		status, _, errs := cli(t, cwd, args...)
		if status != 2 || !strings.Contains(errs, "not a baseline") {
			t.Errorf("%v: status %d, stderr %q; want refusal with status 2", args, status, errs)
		}
	}
}

// TestCheckGate drives -check end to end on the cheapest entry: clean
// against the file -benchdir just wrote, failing with the drifted path
// named once that file is tampered with, and a usage error for a name the
// registry does not have.
func TestCheckGate(t *testing.T) {
	dir := t.TempDir()
	if status, _, errs := cli(t, dir, "-exp", "touches", "-benchdir", "."); status != 0 {
		t.Fatalf("generate: status %d: %s", status, errs)
	}
	status, out, errs := cli(t, dir, "-check", "touches")
	if status != 0 || !strings.HasPrefix(out, "ok   ") {
		t.Fatalf("clean check: status %d\n%s%s", status, out, errs)
	}

	path := baselines(t, dir)[0]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte(`"audit": "ok"`), []byte(`"audit": "no"`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tamper target not found in the touches baseline")
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	status, out, _ = cli(t, dir, "-check", "touches")
	if status != 1 || !strings.HasPrefix(out, "FAIL ") || !strings.Contains(out, ".audit: ok != baseline no") {
		t.Fatalf("tampered check: status %d\n%s", status, out)
	}

	status, _, errs = cli(t, dir, "-check", "nope")
	if status != 2 {
		t.Fatalf("unknown name: status %d", status)
	}
	for _, e := range exp.Registry() {
		if !strings.Contains(errs, "  "+e.Name+" ") {
			t.Errorf("unknown-name message does not list %q:\n%s", e.Name, errs)
		}
	}
}
