package exp

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/fault/soak"
	"repro/internal/socket"
)

// RecoverBench is the fault-domain recovery baseline (BENCH_recover.json):
// every case of the recovery soak matrix reduced to its virtual-time
// recovery telemetry. The injection schedule, the first-goodput instant,
// each flow's fate, and the byte/reset/drop counts are pure functions of
// the seeded event sequence, so the gate exact-diffs them; only the
// advisory wall time may drift. Recovery-time-to-first-goodput is the
// robustness claim restated as a number: how long after the fault domain
// heals does the application see bytes again.
type RecoverBench struct {
	Cells []RecoverCell `json:"cells"`
}

// RecoverCell is one recovery case's reduction.
type RecoverCell struct {
	Name  string `json:"name"`
	Plan  string `json:"plan"`
	Mode  string `json:"mode"`
	Flows int    `json:"flows"`
	// The injection window and the recovery measurement, all virtual
	// nanoseconds. FirstGoodputNs is 0 when no application byte landed
	// after the heal (the flows died, by design for some cases).
	FaultAtNs      int64 `json:"fault_at_ns"`
	HealAtNs       int64 `json:"heal_at_ns"`
	FirstGoodputNs int64 `json:"first_goodput_ns"`
	RecoveryNs     int64 `json:"recovery_ns"`
	EndNs          int64 `json:"end_ns"`
	// Aggregate fate: bytes the application actually received, firmware
	// resets observed, frames eaten by the partition.
	DeliveredBytes int64 `json:"delivered_bytes"`
	Resets         int   `json:"resets"`
	PartitionDrops int64 `json:"partition_drops"`
	// FlowFates pins each flow's end state: byte-exact completion or the
	// documented error it surfaced on each side.
	FlowFates []RecoverFate `json:"flow_fates"`
	Adv       recoverAdv    `json:"advisory"`
}

// RecoverFate is one flow's committed end state.
type RecoverFate struct {
	Delivered int64  `json:"delivered"`
	SndErr    string `json:"snd_err,omitempty"`
	RcvErr    string `json:"rcv_err,omitempty"`
	Complete  bool   `json:"complete"`
}

// recoverAdv is the machine-dependent wall-clock cost, reported but never
// gated.
type recoverAdv struct {
	WallNs int64 `json:"wall_ns"`
}

func errName(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// RunRecoverBench executes the full recovery matrix and reduces each case
// to a cell. A case failure (an invariant violation, not a documented flow
// error) aborts the bench: the baseline only commits healthy runs.
func RunRecoverBench() (RecoverBench, error) {
	var b RecoverBench
	for _, c := range soak.RecoverMatrix() {
		t0 := time.Now()
		o := soak.RunRecover(c)
		if len(o.Failures) != 0 {
			return b, fmt.Errorf("recover %s: %s", c.Name, strings.Join(o.Failures, "; "))
		}
		mode := "unmodified"
		if c.Mode == socket.ModeSingleCopy {
			mode = "single_copy"
		}
		flows := c.Flows
		if flows == 0 {
			flows = 1
		}
		cell := RecoverCell{
			Name: c.Name, Plan: c.Plan, Mode: mode, Flows: flows,
			FaultAtNs:      int64(o.FaultAt),
			HealAtNs:       int64(o.HealAt),
			FirstGoodputNs: int64(o.FirstGoodputAt),
			RecoveryNs:     int64(o.RecoveryTime),
			EndNs:          int64(o.EndTime),
			DeliveredBytes: int64(o.Delivered),
			Resets:         o.Resets,
			PartitionDrops: o.PartitionDrops,
		}
		for _, fl := range o.Flows {
			cell.FlowFates = append(cell.FlowFates, RecoverFate{
				Delivered: int64(fl.Delivered),
				SndErr:    errName(fl.SndErr),
				RcvErr:    errName(fl.RcvErr),
				Complete:  fl.Complete,
			})
		}
		cell.Adv.WallNs = time.Since(t0).Nanoseconds()
		b.Cells = append(b.Cells, cell)
	}
	return b, nil
}

// Format renders a human summary: one line per case.
func (b RecoverBench) Format() string {
	var sb strings.Builder
	sb.WriteString("Fault-domain recovery (virtual time):\n")
	for _, c := range b.Cells {
		complete := 0
		for _, f := range c.FlowFates {
			if f.Complete {
				complete++
			}
		}
		fmt.Fprintf(&sb, "  %-22s fault=%8.3fms heal=%8.3fms recovery=%8.3fms flows=%d/%d done",
			c.Name, float64(c.FaultAtNs)/1e6, float64(c.HealAtNs)/1e6,
			float64(c.RecoveryNs)/1e6, complete, len(c.FlowFates))
		if c.Resets > 0 {
			fmt.Fprintf(&sb, " resets=%d", c.Resets)
		}
		if c.PartitionDrops > 0 {
			fmt.Fprintf(&sb, " part-drops=%d", c.PartitionDrops)
		}
		fmt.Fprintln(&sb)
	}
	return sb.String()
}
