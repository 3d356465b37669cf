package repro_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestWorkflowRunsCITargets holds the GitHub workflow to the Makefile: its
// steps are exactly the prerequisites of `ci:`, in order, so a check
// cannot live in one and be missing from the other.
func TestWorkflowRunsCITargets(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^ci:(.*)$`).FindSubmatch(mk)
	if m == nil {
		t.Fatal("Makefile has no ci: target")
	}
	want := strings.Fields(string(m[1]))

	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, run := range regexp.MustCompile(`(?m)^\s*run:\s*(.*)$`).FindAllSubmatch(yml, -1) {
		got = append(got, strings.TrimPrefix(string(run[1]), "make "))
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("workflow steps %v\n   != ci: targets %v", got, want)
	}
}
