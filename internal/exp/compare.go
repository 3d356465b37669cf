// The baseline gate's comparison: a fresh regeneration against the committed
// BENCH_*.json. Every committed number is virtual time or a count of the
// seeded event sequence, so on unchanged code the two files are equal byte
// for byte, and any other byte is a finding.

package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// Diff is the outcome of comparing one baseline file: each violation names
// a differing leaf, a structural mismatch, or a formatting change.
type Diff struct {
	Violations []string
}

// Summary is the one-line per-file verdict the gate prints above the
// violations. The format is pinned by test.
func (d Diff) Summary(file string) string {
	if len(d.Violations) > 0 {
		return "FAIL " + file
	}
	return "ok   " + file
}

// compareBytes is the gate's rule: equal bytes pass. Otherwise the two
// files are parsed and walked, so each violation names its JSON path; when
// the trees agree, the difference is formatting alone and is one violation.
func compareBytes(file string, base, fresh []byte) (Diff, error) {
	if bytes.Equal(base, fresh) {
		return Diff{}, nil
	}
	var b, f any
	if err := json.Unmarshal(base, &b); err != nil {
		return Diff{}, fmt.Errorf("baseline %s: %w", file, err)
	}
	if err := json.Unmarshal(fresh, &f); err != nil {
		return Diff{}, fmt.Errorf("fresh %s: %w", file, err)
	}
	var d Diff
	walk(&d, file, b, f)
	if len(d.Violations) == 0 {
		d.Violations = []string{file + ": same values, different bytes (a formatting change)"}
	}
	return d, nil
}

// walk compares two parsed JSON trees (the committed baseline and a fresh
// regeneration) and records one violation per structural mismatch or
// differing leaf. The walk is deterministic: map keys are visited sorted.
func walk(d *Diff, path string, base, fresh any) {
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
				walk(d, sub, bv, fv)
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
			walk(d, fmt.Sprintf("%s[%d]", path, i), b[i], f[i])
		}
	case float64:
		f, ok := fresh.(float64)
		if !ok {
			violf("%s: baseline is a number, fresh is %T", path, fresh)
			return
		}
		if f != b {
			violf("%s: %s != baseline %s", path, number(f), number(b))
		}
	default:
		if base != fresh {
			violf("%s: %v != baseline %v", path, fresh, base)
		}
	}
}

// number renders a leaf as encoding/json writes it, so a violation quotes
// the file's own digits (16777216, not 1.6777216e+07).
func number(v float64) string {
	out, _ := json.Marshal(v)
	return string(out)
}
