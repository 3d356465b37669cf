package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

// sameSeedTwice runs a baseline generator twice and requires what the gate
// pins — the rendered file minus its advisory class — to be byte-identical.
// It returns the first run for the caller's oracle assertions.
func sameSeedTwice[B any](t *testing.T, run func() (B, error)) B {
	t.Helper()
	var runs [2]B
	var pinned [2][]byte
	for i := range runs {
		var err error
		if runs[i], err = run(); err != nil {
			t.Fatalf("run %d: %v", i+1, err)
		}
		if pinned[i], err = StripAdvisory(obs.JSON(runs[i])); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(pinned[0], pinned[1]) {
		t.Fatalf("deterministic fields differ between same-seed runs:\n--- first\n%s\n--- second\n%s",
			pinned[0], pinned[1])
	}
	return runs[0]
}

// TestRegistryMatchesRepo holds the table and the tree to each other: every
// committed BENCH_*.json is generated by exactly one entry and every
// entry's File is committed, so neither the gate nor `make bench` can
// skip a baseline (as the hand-kept list once skipped BENCH_recover.json).
// Each committed file must also survive the gate's own walk against
// itself with something actually compared.
func TestRegistryMatchesRepo(t *testing.T) {
	const root = "../.."
	committed, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range committed {
		committed[i] = filepath.Base(p)
	}
	sort.Strings(committed)

	var files []string
	names := map[string]bool{}
	for _, e := range Registry() {
		if names[e.Name] {
			t.Errorf("duplicate entry name %q", e.Name)
		}
		names[e.Name] = true
		if e.File == "" {
			continue
		}
		files = append(files, e.File)
		data, err := os.ReadFile(filepath.Join(root, e.File))
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		d, err := compareJSON(e.File, data, data, e.Exact)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Violations) != 0 || len(d.Advisories) != 0 {
			t.Errorf("%s against itself: %v %v", e.File, d.Violations, d.Advisories)
		}
		if d.Exact+d.Tolerant == 0 {
			t.Errorf("%s: the gate would compare nothing (%s)", e.File, d.Coverage())
		}
		if e.Exact && d.Tolerant != 0 {
			t.Errorf("%s: exact entry compared %d leaves under tolerance", e.File, d.Tolerant)
		}
	}
	sort.Strings(files)
	if strings.Join(files, " ") != strings.Join(committed, " ") {
		t.Errorf("registry files and committed baselines differ (a duplicate File shows up here too):\nregistry:  %v\ncommitted: %v", files, committed)
	}
}

// TestStripAdvisoryMatchesGate: for the committed baselines that carry
// advisory fields, stripping must remove exactly the leaves Compare counts
// as advisory and nothing else — so the determinism tests and the gate can
// never disagree about which fields are pinned.
func TestStripAdvisoryMatchesGate(t *testing.T) {
	for _, file := range []string{"BENCH_sim.json", "BENCH_critpath.json", "BENCH_recover.json"} {
		data, err := os.ReadFile(filepath.Join("../..", file))
		if err != nil {
			t.Fatal(err)
		}
		stripped, err := StripAdvisory(data)
		if err != nil {
			t.Fatal(err)
		}
		var full, rest any
		if err := json.Unmarshal(data, &full); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(stripped, &rest); err != nil {
			t.Fatal(err)
		}
		whole := Compare(file, full, full, 0, 0)
		if whole.Advisory == 0 {
			t.Fatalf("%s: no advisory leaves — the test is vacuous", file)
		}
		kept := Compare(file, rest, rest, 0, 0)
		if kept.Advisory != 0 || kept.Exact != whole.Exact {
			t.Errorf("%s: stripped tree has %s, want %d exact and no advisory",
				file, kept.Coverage(), whole.Exact)
		}
		// Walking the full tree against the stripped one visits every
		// surviving leaf, so the only differences allowed are the advisory
		// keys themselves going missing.
		for _, v := range Compare(file, full, rest, 0, 0).Violations {
			path, what, _ := strings.Cut(v, ": ")
			key := path[strings.LastIndex(path, ".")+1:]
			if what != "missing from fresh output" || !advisoryKey(key) {
				t.Errorf("%s: stripping changed a pinned field: %s", file, v)
			}
		}
	}
}
