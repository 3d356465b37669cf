package exp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/obs/ledger"
	"repro/internal/socket"
	"repro/internal/ttcp"
	"repro/internal/units"
)

// TouchMode is the audited data-touch table for one stack variant: the
// Table 1 cell it should land in, the measured per-host touch counts, and
// the end-to-end oracle verdict.
type TouchMode struct {
	// Cell is the Table 1 configuration this variant realizes.
	Cell string `json:"cell"`
	// Ops is the cell's derived operation sequence (transmit side).
	Ops string `json:"ops"`
	// Class is the cell's cost classification.
	Class string `json:"class"`
	// Audit is "ok" when the oracle held, else the failure text.
	Audit string `json:"audit"`
	// Summary is the measured per-host, per-kind touch table.
	Summary ledger.FlowSummary `json:"summary"`
}

// TouchReport is the machine-checked copy-count table for the two stack
// variants the paper compares (BENCH_touches.json). All fields are
// deterministic for a given seed, and touch counts are exact integers, so
// the gate's tolerance for this file is zero.
type TouchReport struct {
	SingleCopy TouchMode `json:"single_copy"`
	Unmodified TouchMode `json:"unmodified"`
}

// touchTotal and touchRW size the audited transfer: long enough to cover
// slow start and window growth, small enough to keep every record.
const (
	touchTotal = 1 * units.MB
	touchRW    = 64 * units.KB
)

// touchRun runs one clean A→B transfer with the ledger enabled and
// returns the ledger and the data flow id.
func touchRun(mode socket.Mode, seed int64) (*ledger.Ledger, int) {
	tb, a, b := pairTestbed(seed, core.HostConfig{Mach: cost.Alpha400(), Mode: mode}, core.Recorders{Ledger: true})
	ttcp.Run(tb, a, b, ttcp.Params{Total: touchTotal, RWSize: touchRW})
	return tb.Led, tb.Led.MainFlow()
}

// RunTouches measures the data-touch tables for the single-copy and
// unmodified stacks and audits each, strictly, against its stack's Table 1
// cells. The report is returned even when an audit fails; err aggregates
// the failures.
func RunTouches(seed int64) (TouchReport, error) {
	var rep TouchReport
	var errs []string
	for _, v := range []struct {
		dst  *TouchMode
		mode socket.Mode
	}{
		{&rep.SingleCopy, socket.ModeSingleCopy},
		{&rep.Unmodified, socket.ModeUnmodified},
	} {
		tx, rx := v.mode.Cells()
		led, flow := touchRun(v.mode, seed)
		*v.dst = TouchMode{
			Cell:    tx.Config.String(),
			Ops:     tx.OpString(),
			Class:   tx.Class.String(),
			Audit:   "ok",
			Summary: led.Summary(flow, touchTotal, []string{"A", "wire", "B"}),
		}
		if err := led.AssertCell(tx, rx, ledger.AuditConfig{
			Flow: flow, Total: touchTotal, SndHost: "A", RcvHost: "B", Strict: true,
		}); err != nil {
			v.dst.Audit = err.Error()
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		return rep, fmt.Errorf("touch audit failed: %s", strings.Join(errs, "; "))
	}
	return rep, nil
}

// Format renders the report as the paper-style copy-count table.
func (r TouchReport) Format() string {
	var b strings.Builder
	mode := func(name string, m TouchMode) {
		fmt.Fprintf(&b, "%s — Table 1 cell %s: [%s] → %s\n", name, m.Cell, m.Ops, m.Class)
		b.WriteString(m.Summary.Format())
		fmt.Fprintf(&b, "  oracle: %s\n", m.Audit)
	}
	mode("single-copy stack", r.SingleCopy)
	b.WriteString("\n")
	mode("unmodified stack", r.Unmodified)
	return b.String()
}
