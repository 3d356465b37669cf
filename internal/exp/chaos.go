package exp

import (
	"fmt"
	"strings"

	"repro/internal/fault/soak"
)

// chaos is the experiment-shaped wrapper around the soak suite: the full
// adversarial matrix — every fault surface, both protocols, both stack
// modes — rendered as a table. Any invariant violation is an error.
func chaos(bool) (Result, error) {
	var b strings.Builder
	b.WriteString("Chaos soak: end-to-end recovery under injected faults\n")
	fmt.Fprintf(&b, "  %-18s %-6s %-10s %-7s %s\n", "case", "proto", "delivered", "status", "faults")
	failed := 0
	for _, c := range soak.Matrix() {
		o := soak.Run(c)
		status := "ok"
		if len(o.Failures) > 0 {
			status = "FAIL"
			failed++
		}
		faults := strings.TrimPrefix(o.Report, "fault injection: ")
		fmt.Fprintf(&b, "  %-18s %-6s %-10v %-7s %s\n",
			o.Case.Name, o.Case.Proto, o.Delivered, status, faults)
		for _, f := range o.Failures {
			fmt.Fprintf(&b, "      ! %s\n", f)
		}
	}
	if failed > 0 {
		return Result{Text: b.String()}, fmt.Errorf("%d cases violated an invariant", failed)
	}
	return Result{Text: b.String()}, nil
}
