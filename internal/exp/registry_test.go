package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

// sameSeedTwice runs a baseline generator twice and requires the rendered
// files — what the gate compares — to be byte-identical. It returns the
// first run for the caller's oracle assertions.
func sameSeedTwice[B any](t *testing.T, run func() (B, error)) B {
	t.Helper()
	var runs [2]B
	var files [2][]byte
	for i := range runs {
		var err error
		if runs[i], err = run(); err != nil {
			t.Fatalf("run %d: %v", i+1, err)
		}
		files[i] = obs.JSON(runs[i])
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("same-seed runs render different files:\n--- first\n%s\n--- second\n%s",
			files[0], files[1])
	}
	return runs[0]
}

// TestRegistryMatchesRepo holds the table and the tree to each other: every
// committed BENCH_*.json is generated by exactly one entry and every
// entry's File is committed, so neither the gate nor `make bench` can
// skip a baseline (as the hand-kept list once skipped BENCH_recover.json).
// Each committed file must also be what the byte gate can pin: valid JSON
// ending in a newline (obs.JSON's rendering) with no advisory subtree of
// host time, which would differ on every run.
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
		if !bytes.HasSuffix(data, []byte("\n")) {
			t.Errorf("%s does not end in a newline", e.File)
		}
		var tree any
		if err := json.Unmarshal(data, &tree); err != nil {
			t.Errorf("%s: %v", e.File, err)
			continue
		}
		if path := hostTimeKey(e.File, tree); path != "" {
			t.Errorf("%s: a baseline holds only virtual-time results; host time is measured by bench/", path)
		}
	}
	sort.Strings(files)
	if strings.Join(files, " ") != strings.Join(committed, " ") {
		t.Errorf("registry files and committed baselines differ (a duplicate File shows up here too):\nregistry:  %v\ncommitted: %v", files, committed)
	}
}

// hostTimeKey returns the path of the first object key in tree that opens
// an advisory (host-time) subtree, or "".
func hostTimeKey(path string, tree any) string {
	switch v := tree.(type) {
	case map[string]any:
		for k, sub := range v {
			if strings.HasPrefix(k, "advisory") {
				return path + "." + k
			}
			if p := hostTimeKey(path+"."+k, sub); p != "" {
				return p
			}
		}
	case []any:
		for i, sub := range v {
			if p := hostTimeKey(fmt.Sprintf("%s[%d]", path, i), sub); p != "" {
				return p
			}
		}
	}
	return ""
}
