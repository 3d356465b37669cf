package exp

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cab"
	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/obs/critpath"
	"repro/internal/socket"
	"repro/internal/units"
)

// CritBench is the critical-path latency baseline (BENCH_critpath.json):
// the Figure-5 size sweep in both stack modes plus a 64-flow incast, each
// cell reduced to its per-cause latency attribution. Everything except the
// "advisory" analysis wall time is a pure function of the virtual event
// sequence, so the gate exact-diffs it — the per-cause nanoseconds ARE the
// paper's claim restated as latency: the single-copy cells commit
// sender_cpu_copy_ns = 0 and sender_cpu_csum_ns = 0, the unmodified cells
// commit where those nanoseconds went instead.
type CritBench struct {
	Cells []CritCell `json:"cells"`
}

// CritCell is one workload's critical-path reduction.
type CritCell struct {
	Name        string `json:"name"`
	Mode        string `json:"mode"`
	RWSizeBytes int64  `json:"rwsize_bytes,omitempty"`
	Flows       int    `json:"flows,omitempty"`
	// Transfers is the number of completed messages (read returns) whose
	// critical paths were extracted; Events is the happens-before graph
	// size backing them.
	Transfers int   `json:"transfers"`
	Events    int   `json:"events"`
	TotalNs   int64 `json:"total_ns"` // summed path latencies
	// LastPathNs is the connection-completion path: the last message's
	// end-to-end latency, whose back-walk spans the whole transfer.
	LastPathNs int64 `json:"last_path_ns"`
	LastSteps  int   `json:"last_steps"`
	// Sender-side data-touching time on the critical path (Table 1's copy
	// elimination as a latency statement; host A is always the sender).
	SenderCopyNs int64 `json:"sender_cpu_copy_ns"`
	SenderCsumNs int64 `json:"sender_cpu_csum_ns"`
	// ByCause is the full attribution across all paths, cause-index order,
	// zero classes omitted. It sums exactly to TotalNs.
	ByCause []critpath.CauseNs `json:"by_cause"`
	Adv     critAdv            `json:"advisory"`
}

// critAdv holds the cell's wall-clock cost of analysis — machine-dependent,
// reported but never gated.
type critAdv struct {
	AnalyzeWallNs int64 `json:"analyze_wall_ns"`
}

// critCell reduces one recorder to a cell.
func critCell(name, mode string, rw units.Size, flows int, rec *obs.CritRec) CritCell {
	t0 := time.Now()
	rep := critpath.Analyze(rec)
	cell := CritCell{
		Name: name, Mode: mode,
		RWSizeBytes: int64(rw), Flows: flows,
		Transfers: len(rep.Paths),
		Events:    rec.Len(),
		TotalNs:   int64(rep.Total),
		ByCause:   critpath.Causes(rep.ByCause),
	}
	if last := rep.Last(); last != nil {
		cell.LastPathNs = int64(last.Total())
		cell.LastSteps = len(last.Steps)
	}
	for i := range rep.Paths {
		cell.SenderCopyNs += int64(rep.Paths[i].CauseOn("A", obs.CauseCPUCopy))
		cell.SenderCsumNs += int64(rep.Paths[i].CauseOn("A", obs.CauseCPUCsum))
	}
	cell.Adv.AnalyzeWallNs = time.Since(t0).Nanoseconds()
	return cell
}

// critIncast is the 64-flow incast cell: 64 request/response flows from 8
// clients converging on one server under the netmem arbiter, single-copy
// stack — the contention shape where queue/netmem causes climb onto the
// critical path.
func critIncast() (*obs.CritRec, error) {
	rep, err := runLoad(load.Scenario{
		Name:     "incast64",
		Seed:     11,
		Clients:  8,
		Servers:  1,
		Flows:    64,
		Mode:     socket.ModeSingleCopy,
		Requests: 2,
		Stagger:  units.Millisecond,
		Arbiter:  &cab.ArbConfig{},
		CritPath: true,
	})
	if err != nil {
		return nil, err
	}
	return rep.Crit, nil
}

// RunCritPath executes the critical-path workload matrix. With quick set it
// sweeps three sizes instead of the full Figure-5 grid (the shape the
// determinism test uses under -short).
func RunCritPath(quick bool) (CritBench, error) {
	sizes := DefaultSizes()
	if quick {
		sizes = []units.Size{4 * units.KB, 64 * units.KB, 256 * units.KB}
	}
	var b CritBench
	for _, m := range []struct {
		mode  socket.Mode
		label string
	}{
		{socket.ModeUnmodified, "unmodified"},
		{socket.ModeSingleCopy, "single_copy"},
	} {
		for i, rw := range sizes {
			var rec *obs.CritRec
			fig5Cell(m.mode, rw, int64(3000+i), func(tb *core.Testbed) { rec = tb.EnableCritPath() })
			b.Cells = append(b.Cells,
				critCell(fmt.Sprintf("fig5/%s/%d", m.label, int64(rw)), m.label, rw, 0, rec))
		}
	}
	rec, err := critIncast()
	if err != nil {
		return b, err
	}
	b.Cells = append(b.Cells, critCell("incast64", "single_copy", 0, 64, rec))
	return b, nil
}

// Format renders a human summary: one line per cell plus its top causes.
func (b CritBench) Format() string {
	var sb strings.Builder
	sb.WriteString("Critical-path latency attribution:\n")
	for _, c := range b.Cells {
		fmt.Fprintf(&sb, "  %-26s transfers=%-4d last-path=%8.1fus snd-copy=%6.1fus snd-csum=%6.1fus\n",
			c.Name, c.Transfers, float64(c.LastPathNs)/1e3,
			float64(c.SenderCopyNs)/1e3, float64(c.SenderCsumNs)/1e3)
		fmt.Fprintf(&sb, "  %-26s   by cause:", "")
		for _, cn := range c.ByCause {
			fmt.Fprintf(&sb, " %s=%.1f%%", cn.Cause, 100*float64(cn.Ns)/float64(c.TotalNs))
		}
		fmt.Fprintln(&sb)
	}
	return sb.String()
}
