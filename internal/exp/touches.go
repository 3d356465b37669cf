package exp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/obs/ledger"
	"repro/internal/socket"
	"repro/internal/taxonomy"
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
	var led *ledger.Ledger
	tb, a, b := pairTestbed(seed, core.HostConfig{Mach: cost.Alpha400(), Mode: mode},
		func(tb *core.Testbed) { led = tb.EnableLedger() })
	ttcp.Run(tb, a, b, ttcp.Params{Total: touchTotal, RWSize: touchRW})
	return led, led.MainFlow()
}

// opsString renders a cell's op sequence.
func opsString(c taxonomy.Cell) string {
	ops := make([]string, len(c.Ops))
	for i, op := range c.Ops {
		ops[i] = string(op)
	}
	return strings.Join(ops, " ")
}

// RunTouches measures the data-touch tables for the single-copy and
// unmodified stacks and checks each against its audit oracle. The report
// is returned even when an oracle fails; err aggregates the failures.
func RunTouches(seed int64) (TouchReport, error) {
	var rep TouchReport
	var errs []string
	for _, v := range []struct {
		dst    *TouchMode
		mode   socket.Mode
		cell   taxonomy.Config
		strict bool
		assert func(*ledger.Ledger, ledger.AuditConfig) error
	}{
		// The CAB cell: copy API, header checksum, outboard buffering,
		// DMA with checksum in flight → zero host data accesses.
		{&rep.SingleCopy, socket.ModeSingleCopy, taxonomy.Config{
			API: taxonomy.APICopy, Csum: taxonomy.CsumHeader,
			Buf: taxonomy.BufOutboard, Move: taxonomy.MoveDMACsum,
		}, true, (*ledger.Ledger).AssertSingleCopy},
		// The unmodified cell: copy API, header checksum, no outboard
		// buffering, plain DMA → the copy-semantics copy is unavoidable.
		// (The simulated original stack takes the separate-checksum
		// variant: a plain copy at the socket layer plus a checksum read
		// in TCP, the same per-byte access count Table 1 charges the cell.)
		{&rep.Unmodified, socket.ModeUnmodified, taxonomy.Config{
			API: taxonomy.APICopy, Csum: taxonomy.CsumHeader,
			Buf: taxonomy.BufNone, Move: taxonomy.MoveDMA,
		}, false, (*ledger.Ledger).AssertMultiCopy},
	} {
		cell := taxonomy.Derive(v.cell)
		led, flow := touchRun(v.mode, seed)
		*v.dst = TouchMode{
			Cell:    cell.Config.String(),
			Ops:     opsString(cell),
			Class:   cell.Class.String(),
			Audit:   "ok",
			Summary: led.Summary(flow, touchTotal, []string{"A", "wire", "B"}),
		}
		if err := v.assert(led, ledger.AuditConfig{
			Flow: flow, Total: touchTotal, SndHost: "A", RcvHost: "B", Strict: v.strict,
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
