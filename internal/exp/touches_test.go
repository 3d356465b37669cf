package exp

import (
	"testing"

	"repro/internal/obs/ledger"
	"repro/internal/socket"
	"repro/internal/taxonomy"
)

// TestTouchRunsMatchTheirCellsOnly audits each stack's 1 MB touch run
// against every cell of Table 1, paired with its receive cell. A run must
// pass exactly the cells whose derived touches equal its own stack's and
// fail all the others: the oracle tells the cells apart.
func TestTouchRunsMatchTheirCellsOnly(t *testing.T) {
	wants := func(tx, rx taxonomy.Cell) ([2]ledger.Want, error) {
		s, err := ledger.CellWant(tx, true)
		if err != nil {
			return [2]ledger.Want{}, err
		}
		r, err := ledger.CellWant(rx, false)
		return [2]ledger.Want{s, r}, err
	}
	for _, v := range []struct {
		mode  socket.Mode
		cells int // how many cells share the stack's touches
	}{
		// DMA_C both ways: copy API on outboard buffering, or shared API
		// wherever no header checksum is due before the data moves.
		{socket.ModeSingleCopy, 7},
		// Copy_C DMA out, DMA Copy_C in: copy API, plain DMA, no
		// outboard buffering.
		{socket.ModeUnmodified, 4},
	} {
		own, err := wants(v.mode.Cells())
		if err != nil {
			t.Fatal(err)
		}
		led, flow := touchRun(v.mode, 1)
		cfg := ledger.AuditConfig{Flow: flow, Total: touchTotal, SndHost: "A", RcvHost: "B", Strict: true}
		passed := 0
		for _, tx := range taxonomy.All() {
			rx := taxonomy.DeriveReceive(tx.Config)
			w, err := wants(tx, rx)
			same := err == nil && w == own
			if got := led.AssertCell(tx, rx, cfg); (got == nil) != same {
				t.Errorf("mode %v, cell %v [%s]/[%s]: audit error %v, want pass %v",
					v.mode, tx.Config, tx.OpString(), rx.OpString(), got, same)
			}
			if same {
				passed++
			}
		}
		if passed != v.cells {
			t.Errorf("mode %v: %d cells share its touches, want %d", v.mode, passed, v.cells)
		}
	}
}
