// Package fault is the deterministic fault-injection subsystem: seeded,
// composable fault plans scheduled in virtual time, injected at three
// surfaces — the wire (drop, bit-flip corruption, duplication, reordering,
// delay via hippi.Network's Injector hook), the CAB hardware (SDMA
// transfer failures, checksum-engine miscomputation, network-memory
// pressure), and the kernel (mbuf/page allocation failures).
//
// Everything is driven by the injector's own rand.Rand, seeded explicitly:
// the same plan and seed produce the same faults at the same virtual
// times, so every failure a soak run finds replays exactly.
package fault

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/cab"
	"repro/internal/hippi"
	"repro/internal/kern"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

// Kind enumerates the injectable fault kinds.
type Kind int

// Fault kinds. Drop..Delay are wire faults (consulted per frame); the
// rest target the CAB hardware and the kernel allocator.
const (
	Drop      Kind = iota // wire: discard the frame
	Corrupt               // wire: flip one bit in the transport segment
	Dup                   // wire: deliver extra copies
	Reorder               // wire: deliver out of order (extra delay, bypassing rx serialization)
	Delay                 // wire: extra propagation delay
	Partition             // wire: link partition window — drop everything, then heal
	DMAFail               // CAB: SDMA transfer fails (the engine retries)
	TxCsum                // CAB: transmit checksum engine miscomputes
	RxCsum                // CAB: receive checksum engine miscomputes
	Netmem                // CAB: network-memory pressure window
	AllocFail             // kernel: mbuf/page allocation failure
	CABReset              // CAB: firmware reset — netmem, descriptors, WCAB state wiped
	numKinds
)

var kindNames = [numKinds]string{
	"drop", "corrupt", "dup", "reorder", "delay", "partition",
	"dmafail", "txcsum", "rxcsum", "netmem", "allocfail", "cabreset",
}

func (k Kind) String() string {
	if k >= 0 && k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

func wireKind(k Kind) bool { return k <= Partition }

// statefulKind reports the kinds scheduled by virtual-time window (From /
// Dur / Until) rather than by a per-event Schedule.
func statefulKind(k Kind) bool { return k == Partition || k == Netmem || k == CABReset }

// corruptSkip is where bit-flip corruption starts: past the link and IP
// headers, inside the transport segment, so the corruption is always
// caught (and counted) by the transport checksum rather than vanishing
// into a link-parse drop.
const corruptSkip = wire.LinkHdrLen + wire.IPHdrLen

// Schedule decides, event by event, whether a rule fires. Implementations
// are stateful (counters, one-shot latches, rng streams) and belong to
// exactly one Rule.
type Schedule interface {
	fire(now units.Time) bool
	// seed hands probabilistic schedules their deterministic rng stream;
	// called once when the rule is added to an injector.
	seed(rng *rand.Rand)
}

type everySched struct {
	n   int64
	cnt int64
}

func (s *everySched) fire(units.Time) bool { s.cnt++; return s.cnt%s.n == 0 }
func (s *everySched) seed(*rand.Rand)      {}

// Every fires on every nth eligible event.
func Every(n int) Schedule {
	if n < 1 {
		n = 1
	}
	return &everySched{n: int64(n)}
}

type probSched struct {
	p   float64
	rng *rand.Rand
}

func (s *probSched) fire(units.Time) bool { return s.rng.Float64() < s.p }
func (s *probSched) seed(r *rand.Rand)    { s.rng = r }

// Prob fires on each eligible event with probability p, from the
// injector's seeded stream.
func Prob(p float64) Schedule { return &probSched{p: p} }

type burstSched struct {
	start, length int64
	cnt           int64
}

func (s *burstSched) fire(units.Time) bool {
	s.cnt++
	return s.cnt > s.start && s.cnt <= s.start+s.length
}
func (s *burstSched) seed(*rand.Rand) {}

// Burst fires on length consecutive eligible events after skipping the
// first start.
func Burst(start, length int) Schedule {
	return &burstSched{start: int64(start), length: int64(length)}
}

type onceSched struct {
	t    units.Time
	done bool
}

func (s *onceSched) fire(now units.Time) bool {
	if s.done || now < s.t {
		return false
	}
	s.done = true
	return true
}
func (s *onceSched) seed(*rand.Rand) {}

// At fires once, on the first eligible event at or after virtual time t.
func At(t units.Time) Schedule { return &onceSched{t: t} }

type windowSched struct{ from, to units.Time }

func (s *windowSched) fire(now units.Time) bool { return now >= s.from && now < s.to }
func (s *windowSched) seed(*rand.Rand)          {}

// Window fires on every eligible event within [from, to) of virtual time.
func Window(from, to units.Time) Schedule { return &windowSched{from: from, to: to} }

// Rule is one fault: a kind, a schedule, and kind-specific parameters.
type Rule struct {
	Kind Kind
	// When schedules the rule. Required for every kind except Netmem,
	// which is scheduled purely by From/Until.
	When Schedule

	// MinLen restricts wire rules to frames at least this long (sparing
	// handshake and ACK traffic). 0 matches everything.
	MinLen units.Size
	// Match further restricts wire rules (nil: all frames). It runs
	// before the schedule, so filtered frames do not advance it.
	Match func(*hippi.Frame) bool
	// Delay is the extra delay for Delay/Reorder rules (0: kind default).
	Delay units.Time
	// Dup is how many extra copies a Dup rule delivers (0: one).
	Dup int

	// Netmem: reserve Pages pages (0: all of them) from From until Until
	// (Until 0: for the rest of the run).
	Pages       int
	From, Until units.Time
	// Dur is sugar for Until = From + Dur on window-scheduled kinds
	// (Partition, Netmem); normalized by Add.
	Dur units.Time

	// Partition: drop every frame in [From, Until) — the link is down, then
	// heals. SrcNode/DstNode (0: any) restrict the partition to one wire
	// direction.
	SrcNode, DstNode hippi.NodeID
	// Link restricts a Partition to one named fabric trunk (e.g.
	// "leaf0-spine1") instead of the host wire: the rule is consulted via
	// the network's LinkInjector hook on every hop over that trunk, and
	// never matches host-edge frames. Mutually exclusive with src/dst.
	Link string

	// CABReset: fire the firmware reset at From on the adaptor with Node
	// (0: every wired adaptor).
	Node hippi.NodeID
}

// Injector owns a fault plan and implements every injection surface:
// hippi.Injector for the wire, the cab fault hooks, and kern.AllocFault.
type Injector struct {
	eng   *sim.Engine
	rng   *rand.Rand
	rules []*Rule

	// Fired counts, per kind, how many faults were actually injected.
	Fired [numKinds]int64

	trace *obs.Trace
}

// New returns an empty injector on engine eng with its own deterministic
// rng stream.
func New(eng *sim.Engine, seed int64) *Injector {
	return &Injector{eng: eng, rng: rand.New(rand.NewSource(seed))}
}

// Add appends a rule to the plan. Rule addition order is part of the
// plan's identity: each schedule's rng stream derives from the injector
// seed in order. Add rules before wiring the injector into a testbed.
func (in *Injector) Add(r Rule) *Injector {
	if r.Kind < 0 || r.Kind >= numKinds {
		panic(fmt.Sprintf("fault: bad kind %d", int(r.Kind)))
	}
	if r.When == nil && !statefulKind(r.Kind) {
		panic(fmt.Sprintf("fault: %v rule needs a schedule", r.Kind))
	}
	if r.Dur > 0 && r.Until == 0 {
		r.Until = r.From + r.Dur
	}
	if r.When != nil {
		r.When.seed(rand.New(rand.NewSource(in.rng.Int63())))
	}
	in.rules = append(in.rules, &r)
	return in
}

func (in *Injector) has(k Kind) bool {
	for _, r := range in.rules {
		if r.Kind == k {
			return true
		}
	}
	return false
}

// hit records one injected fault of kind k.
func (in *Injector) hit(k Kind) {
	in.Fired[k]++
	in.trace.Event("fault", kindNames[k], "fault."+kindNames[k])
}

// Frame implements hippi.Injector: it runs the wire rules against one
// frame, mutating f.Data in place for corruption and folding the rest
// into the verdict.
func (in *Injector) Frame(f *hippi.Frame) hippi.Verdict {
	var v hippi.Verdict
	// Partition windows first: while the link is down nothing traverses, so
	// a partitioned frame never reaches (or advances) the per-packet rules.
	for _, r := range in.rules {
		if r.Kind != Partition || r.Link != "" {
			continue
		}
		if now := in.eng.Now(); now < r.From || (r.Until > 0 && now >= r.Until) {
			continue
		}
		if r.SrcNode != 0 && f.Src != r.SrcNode {
			continue
		}
		if r.DstNode != 0 && f.Dst != r.DstNode {
			continue
		}
		in.hit(Partition)
		v.Drop = true
		return v
	}
	for _, r := range in.rules {
		if !wireKind(r.Kind) || r.Kind == Partition {
			continue
		}
		if r.MinLen > 0 && units.Size(len(f.Data)) < r.MinLen {
			continue
		}
		if r.Match != nil && !r.Match(f) {
			continue
		}
		if r.Kind == Corrupt && units.Size(len(f.Data)) <= corruptSkip {
			continue
		}
		if !r.When.fire(in.eng.Now()) {
			continue
		}
		in.hit(r.Kind)
		switch r.Kind {
		case Drop:
			v.Drop = true
		case Corrupt:
			off := int(corruptSkip) + in.rng.Intn(len(f.Data)-int(corruptSkip))
			f.Data[off] ^= 1 << uint(in.rng.Intn(8))
		case Dup:
			d := r.Dup
			if d < 1 {
				d = 1
			}
			v.Dup += d
		case Reorder, Delay:
			d := r.Delay
			if d == 0 {
				if r.Kind == Reorder {
					d = defaultReorderDelay
				} else {
					d = defaultExtraDelay
				}
			}
			v.Delay += d
		}
	}
	return v
}

// LinkDown implements hippi.LinkInjector: it reports whether a named
// fabric trunk is inside a Partition window, counting each frame the
// downed link eats. Rules without a Link never match here, and Link
// rules never match in Frame, so a plan can partition host wires and
// fabric trunks independently.
func (in *Injector) LinkDown(name string, now units.Time) bool {
	for _, r := range in.rules {
		if r.Kind != Partition || r.Link != name {
			continue
		}
		if now < r.From || (r.Until > 0 && now >= r.Until) {
			continue
		}
		in.hit(Partition)
		return true
	}
	return false
}

// Kind-default delays: a Delay rule adds modest jitter; a Reorder rule
// delays long enough to land the frame behind several successors at HIPPI
// frame spacing.
const (
	defaultExtraDelay   = 200 * units.Microsecond
	defaultReorderDelay = 1 * units.Millisecond
)

// hwFire runs every rule of kind k once (one hardware event: an SDMA
// transfer, an allocation attempt) and reports whether any fired.
func (in *Injector) hwFire(k Kind) bool {
	fired := false
	for _, r := range in.rules {
		if r.Kind != k {
			continue
		}
		if r.When.fire(in.eng.Now()) {
			in.hit(k)
			fired = true
		}
	}
	return fired
}

// csumMask runs the checksum-engine rules of kind k for one computation
// and returns the xor mask to apply to the body sum: 0 when no rule
// fired, otherwise a mask in [1, 0xfffe] — never 0xffff, whose flip can
// alias under one's-complement folding and escape detection.
func (in *Injector) csumMask(k Kind) uint32 {
	var m uint32
	fired := false
	for _, r := range in.rules {
		if r.Kind != k {
			continue
		}
		if r.When.fire(in.eng.Now()) {
			in.hit(k)
			fired = true
			m ^= uint32(1 + in.rng.Intn(0xfffe))
		}
	}
	if fired && (m == 0 || m == 0xffff) {
		m = 0x5555
	}
	return m
}

// WireNet installs the injector on a network (the wire surface).
func (in *Injector) WireNet(n *hippi.Network) { n.Inj = in }

// WireCAB installs the hardware-surface hooks on one adaptor and
// schedules its netmem-pressure windows. Hooks are installed only for
// kinds the plan contains, so absent faults stay allocation-free no-ops.
func (in *Injector) WireCAB(c *cab.CAB) {
	if in.has(DMAFail) {
		c.FaultSDMA = func() bool { return in.hwFire(DMAFail) }
	}
	if in.has(TxCsum) {
		c.FaultTxCsum = func() uint32 { return in.csumMask(TxCsum) }
	}
	if in.has(RxCsum) {
		c.FaultRxCsum = func() uint32 { return in.csumMask(RxCsum) }
	}
	for _, r := range in.rules {
		switch r.Kind {
		case Netmem:
			pages := r.Pages
			if pages <= 0 {
				pages = c.TotalPages()
			}
			until := r.Until
			in.eng.At(r.From, func() {
				in.hit(Netmem)
				c.SetReserve(pages)
			})
			if until > r.From {
				in.eng.At(until, func() { c.SetReserve(0) })
			}
		case CABReset:
			if r.Node != 0 && c.NodeID() != r.Node {
				continue
			}
			in.eng.At(r.From, func() {
				in.hit(CABReset)
				c.Reset()
			})
		}
	}
}

// WireKernel installs the allocation-fault hook on one kernel.
func (in *Injector) WireKernel(k *kern.Kernel) {
	if in.has(AllocFail) {
		k.AllocFault = func() bool { return in.hwFire(AllocFail) }
	}
}

// SetObs attaches telemetry: a fault.<kind> metric reading Fired per kind
// present in the plan, and an instant trace event per injected fault.
func (in *Injector) SetObs(r *obs.Registry, tr *obs.Trace) {
	if r != nil {
		for k := Kind(0); k < numKinds; k++ {
			if in.has(k) {
				r.Func("fault."+kindNames[k], func() int64 { return in.Fired[k] })
			}
		}
	}
	in.trace = tr
}

// FiredMap returns the per-kind injected-fault counts, keyed by kind name,
// for kinds present in the plan (fired or not). Flight dumps embed it so a
// wedged soak case is diagnosable from the dump alone.
func (in *Injector) FiredMap() map[string]int64 {
	m := make(map[string]int64)
	for k := Kind(0); k < numKinds; k++ {
		if in.has(k) || in.Fired[k] > 0 {
			m[kindNames[k]] = in.Fired[k]
		}
	}
	return m
}

// FaultWindow is one scheduled stateful-fault window: the virtual-time
// span a partition or netmem reservation covers, or the instant of a
// cabreset (Until == From).
type FaultWindow struct {
	Kind        Kind
	From, Until units.Time
}

// Windows lists the plan's stateful-fault windows in rule order, so
// recovery tooling can report time-to-recover against the injection
// schedule without re-parsing the plan.
func (in *Injector) Windows() []FaultWindow {
	var ws []FaultWindow
	for _, r := range in.rules {
		if !statefulKind(r.Kind) {
			continue
		}
		w := FaultWindow{Kind: r.Kind, From: r.From, Until: r.Until}
		if r.Kind == CABReset {
			w.Until = r.From
		}
		ws = append(ws, w)
	}
	return ws
}

// Report summarizes what fired, for CLI output.
func (in *Injector) Report() string {
	var b strings.Builder
	b.WriteString("fault injection:")
	any := false
	for k := Kind(0); k < numKinds; k++ {
		if in.Fired[k] > 0 {
			fmt.Fprintf(&b, " %s=%d", kindNames[k], in.Fired[k])
			any = true
		}
	}
	if !any {
		b.WriteString(" none fired")
	}
	return b.String()
}
