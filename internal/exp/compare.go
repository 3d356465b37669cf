// The baseline gate's comparison: a fresh regeneration against the committed
// BENCH_*.json, leaf by leaf. The simulator is deterministic, so on
// unchanged code the files match byte-for-byte; the tolerances only leave
// room for intentional small recalibrations. Leaves fall in three classes:
//
//   - exact: strings and booleans always, and every number of an entry
//     registered Exact — integer counts and virtual nanoseconds that are
//     pure functions of the seeded event sequence, where any drift is a
//     real behavior change, never noise;
//   - tolerant: the numbers of the other entries (figure curves, load
//     throughput and latency), gated at defaultRel/defaultAbs;
//   - advisory: anything under an advisoryKey — drift is printed ("adv"
//     lines) but never fails the gate. This is what lets BENCH_sim.json
//     commit real events/sec and allocs/op numbers without making CI flake
//     on scheduler noise.

package exp

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Tolerances of the tolerant class. The gate protects fractional leaves
// (utilization, category shares, all in [0,1]) as strictly as large ones,
// so the absolute term only absorbs float formatting noise.
const (
	defaultRel = 0.05
	defaultAbs = 1e-6
)

// Diff is the outcome of comparing one baseline file: Violations fail the
// gate; Advisories are drift in advisory-class fields — reported so the
// trend is visible, never a failure. The three counters record coverage —
// how many leaves were actually compared under each class — so a gate that
// silently compares nothing is visible in the output.
type Diff struct {
	Violations []string
	Advisories []string
	// Exact counts leaves compared with zero tolerance (strings, booleans,
	// and numbers in exact-class files); Tolerant counts numeric leaves
	// compared under the rel/abs tolerance; Advisory counts leaves under an
	// advisory-class key, whose drift never fails the gate.
	Exact    int
	Tolerant int
	Advisory int
}

// Coverage renders the per-file comparison summary, one line's worth:
// how many leaves each class contributed. The format is pinned by test.
func (d Diff) Coverage() string {
	return fmt.Sprintf("%d exact / %d tolerant / %d advisory fields compared",
		d.Exact, d.Tolerant, d.Advisory)
}

// Summary is the one-line per-file verdict the gate prints: ok/FAIL, the
// file, the coverage counts, and any advisory-drift or violation tally.
// The format is pinned by test.
func (d Diff) Summary(file string) string {
	cov := d.Coverage()
	switch {
	case len(d.Violations) > 0:
		return fmt.Sprintf("FAIL %s (%s; %d violations)", file, cov, len(d.Violations))
	case len(d.Advisories) > 0:
		return fmt.Sprintf("ok   %s (%s; %d advisory drifts)", file, cov, len(d.Advisories))
	default:
		return fmt.Sprintf("ok   %s (%s)", file, cov)
	}
}

// advisoryKey reports whether a JSON object key opens an advisory-class
// subtree: wall-clock and allocation measurements that depend on the
// machine, the Go version, and GC timing. Numeric drift under such a key
// is reported but cannot fail CI; structural drift (missing fields, type
// or shape changes) still fails, so baselines cannot silently lose their
// advisory columns.
func advisoryKey(k string) bool {
	return k == "advisory" || strings.HasPrefix(k, "advisory_")
}

// StripAdvisory re-renders a baseline without its advisory-class subtrees,
// by the same key rule Compare classifies with: what is left is exactly
// what the gate pins, so same-seed runs must agree on it byte for byte.
func StripAdvisory(data []byte) ([]byte, error) {
	var tree any
	if err := json.Unmarshal(data, &tree); err != nil {
		return nil, err
	}
	var strip func(v any)
	strip = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, sub := range v {
				if advisoryKey(k) {
					delete(v, k)
				} else {
					strip(sub)
				}
			}
		case []any:
			for _, sub := range v {
				strip(sub)
			}
		}
	}
	strip(tree)
	return json.MarshalIndent(tree, "", "  ")
}

// compareJSON is Compare over two rendered files, with the tolerance class
// the registry gives the entry.
func compareJSON(file string, base, fresh []byte, exact bool) (Diff, error) {
	var b, f any
	if err := json.Unmarshal(base, &b); err != nil {
		return Diff{}, fmt.Errorf("baseline %s: %w", file, err)
	}
	if err := json.Unmarshal(fresh, &f); err != nil {
		return Diff{}, fmt.Errorf("fresh %s: %w", file, err)
	}
	if exact {
		return Compare(file, b, f, 0, 0), nil
	}
	return Compare(file, b, f, defaultRel, defaultAbs), nil
}

// Compare walks two parsed JSON trees (the committed baseline and a fresh
// regeneration) and returns one violation per structural mismatch or
// numeric leaf outside tolerance, with advisory-class leaves split out.
// Numbers pass when
//
//	|fresh-base| <= abs + rel·max(|base|, |fresh|)
//
// so rel gates large values (throughput, ns) and abs absorbs rounding
// noise near zero. The walk is deterministic: map keys are visited sorted.
func Compare(path string, base, fresh any, rel, abs float64) Diff {
	var d Diff
	compare(&d, path, base, fresh, rel, abs, false)
	return d
}

func compare(d *Diff, path string, base, fresh any, rel, abs float64, advisory bool) {
	violf := func(format string, args ...any) {
		d.Violations = append(d.Violations, fmt.Sprintf(format, args...))
	}
	switch b := base.(type) {
	case map[string]any:
		f, ok := fresh.(map[string]any)
		if !ok {
			violf("%s: baseline is an object, fresh is %T", path, fresh)
			return
		}
		keys := map[string]bool{}
		for k := range b {
			keys[k] = true
		}
		for k := range f {
			keys[k] = true
		}
		var sorted []string
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			bv, inB := b[k]
			fv, inF := f[k]
			sub := path + "." + k
			switch {
			case !inB:
				violf("%s: not in baseline", sub)
			case !inF:
				violf("%s: missing from fresh output", sub)
			default:
				compare(d, sub, bv, fv, rel, abs, advisory || advisoryKey(k))
			}
		}
	case []any:
		f, ok := fresh.([]any)
		if !ok {
			violf("%s: baseline is an array, fresh is %T", path, fresh)
			return
		}
		if len(b) != len(f) {
			violf("%s: length %d != baseline %d", path, len(f), len(b))
			return
		}
		for i := range b {
			compare(d, fmt.Sprintf("%s[%d]", path, i), b[i], f[i], rel, abs, advisory)
		}
	case float64:
		f, ok := fresh.(float64)
		if !ok {
			violf("%s: baseline is a number, fresh is %T", path, fresh)
			return
		}
		switch {
		case advisory:
			d.Advisory++
		case rel == 0 && abs == 0:
			d.Exact++
		default:
			d.Tolerant++
		}
		tol := abs + rel*math.Max(math.Abs(b), math.Abs(f))
		if math.Abs(f-b) > tol {
			delta := 0.0
			if b != 0 {
				delta = 100 * (f - b) / math.Abs(b)
			}
			msg := fmt.Sprintf("%s: %g vs baseline %g (%+.1f%%, tolerance ±%g)",
				path, f, b, delta, tol)
			if advisory {
				d.Advisories = append(d.Advisories, msg)
			} else {
				d.Violations = append(d.Violations, msg)
			}
		}
	default:
		// Non-numeric leaves (strings, booleans, null) are always compared
		// exactly, whatever the tolerances.
		if advisory {
			d.Advisory++
		} else {
			d.Exact++
		}
		if base != fresh {
			violf("%s: %v != baseline %v", path, fresh, base)
		}
	}
}
