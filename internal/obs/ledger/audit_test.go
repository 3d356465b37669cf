package ledger

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/taxonomy"
	"repro/internal/units"
)

// touch is one synthetic record of flow 1.
type touch struct {
	host   string
	off, n units.Size
	kind   Kind
	flags  Flags
}

// synTotal is the synthetic stream length; its first synHead bytes of
// each packet (here one packet) reach the receiver by auto-DMA.
const (
	synTotal units.Size = 1000
	synHead  units.Size = 100
)

// The touches each stack's cells predict, recorded as the stacks record
// them: the receiver's SDMA is split into the auto-DMAed head and the
// rest, and the single-copy receiver copies the head out of its receive
// buffer.
var (
	cabTouches = []touch{
		{"A", 0, synTotal, SDMAToNet, FlagCsumFlight},
		{"B", 0, synHead, SDMAToHost, FlagAutoDMA},
		{"B", synHead, synTotal - synHead, SDMAToHost, 0},
		{"B", 0, synHead, CPUCopy, 0},
	}
	unmodifiedTouches = []touch{
		{"A", 0, synTotal, CPUCopy, 0},
		{"A", 0, synTotal, CPUCsum, 0},
		{"A", 0, synTotal, SDMAToNet, 0},
		{"B", 0, synHead, SDMAToHost, FlagAutoDMA},
		{"B", synHead, synTotal - synHead, SDMAToHost, 0},
		{"B", 0, synTotal, CPUCopy, 0},
		{"B", 0, synTotal, CPUCsum, 0},
	}
)

// with returns base plus extra, leaving base alone.
func with(base []touch, extra ...touch) []touch {
	return append(append([]touch(nil), base...), extra...)
}

// TestAssertCellSynthetic runs the oracle on hand-built ledgers: exactly
// the derived touches pass, and each kind of extra, missing or mislabelled
// touch fails in strict mode; loose mode forgives only what the retransmit
// allowance names.
func TestAssertCellSynthetic(t *testing.T) {
	for _, tc := range []struct {
		name          string
		cell          taxonomy.Config
		touches       []touch
		drop          bool
		strict, loose bool // the verdicts wanted: true passes
	}{
		{"cab derived", taxonomy.CAB, cabTouches, false, true, true},
		{"unmodified derived", taxonomy.Unmodified, unmodifiedTouches, false, true, true},
		{"cab extra sender copy", taxonomy.CAB,
			with(cabTouches, touch{"A", 10, 1, CPUCopy, 0}), false, false, false},
		{"cab extra sender copy, retransmitted", taxonomy.CAB,
			with(cabTouches, touch{"A", 10, 1, CPUCopy, FlagRtx}), false, false, true},
		{"cab extra receiver checksum", taxonomy.CAB,
			with(cabTouches, touch{"B", 0, synTotal, CPUCsum, 0}), false, false, false},
		{"cab SDMA without checksum-in-flight", taxonomy.CAB,
			with(cabTouches[1:], touch{"A", 0, 500, SDMAToNet, FlagCsumFlight},
				touch{"A", 500, synTotal - 500, SDMAToNet, 0}), false, false, false},
		{"cab receiver copy outside auto-DMA", taxonomy.CAB,
			with(cabTouches, touch{"B", 500, 10, CPUCopy, 0}), false, false, true},
		{"cab receiver copies a head twice", taxonomy.CAB,
			with(cabTouches, touch{"B", 0, 10, CPUCopy, 0}), false, false, true},
		{"cab sender DMA hole", taxonomy.CAB,
			with(cabTouches[1:], touch{"A", 0, 900, SDMAToNet, FlagCsumFlight}), false, false, false},
		{"cab dropped record", taxonomy.CAB, cabTouches, true, false, false},
		{"unmodified second sender copy", taxonomy.Unmodified,
			with(unmodifiedTouches, touch{"A", 0, synTotal, CPUCopy, 0}), false, false, true},
		{"unmodified retransmission checksummed in flight", taxonomy.Unmodified,
			with(unmodifiedTouches, touch{"A", 0, 10, SDMAToNet, FlagCsumFlight | FlagRtx}), false, false, false},
		{"cab touches on unmodified cells", taxonomy.Unmodified, cabTouches, false, false, false},
		{"unmodified touches on cab cells", taxonomy.CAB, unmodifiedTouches, false, false, false},
		{"PIO cell", taxonomy.Config{API: taxonomy.APIShared, Csum: taxonomy.CsumTrailer,
			Buf: taxonomy.BufNone, Move: taxonomy.MovePIO}, cabTouches, false, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			led := New(func() units.Time { return 0 })
			if tc.drop {
				led.records = obs.NewLog[Record](len(tc.touches))
			}
			for _, r := range tc.touches {
				led.Hook(r.host).Touch(1, r.off, r.n, r.kind, "test", r.flags, 0)
			}
			if tc.drop {
				led.Hook("A").Touch(2, 0, 1, CPUCopy, "test", 0, 0)
			}
			tx, rx := taxonomy.Derive(tc.cell), taxonomy.DeriveReceive(tc.cell)
			for _, strict := range []bool{true, false} {
				want := tc.loose
				if strict {
					want = tc.strict
				}
				err := led.AssertCell(tx, rx, AuditConfig{
					Flow: 1, Total: synTotal, SndHost: "A", RcvHost: "B", Strict: strict})
				if (err == nil) != want {
					t.Errorf("strict=%v: err = %v, want pass %v", strict, err, want)
				}
			}
		})
	}
}
