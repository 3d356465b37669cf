package kern

import (
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/obs/prof"
	"repro/internal/sim"
	"repro/internal/units"
)

// Ctx identifies the execution context protocol code runs in: either a
// task's process context (a system call on its behalf) or interrupt
// context (Task nil). It lets shared stack code charge CPU time correctly
// without caring who called it.
//
// Ctx also carries the layer-stack position for the virtual-time profiler:
// each layer pushes a frame with In (obs.LayerSocket, obs.LayerTCPOutput,
// ...), and every Charge issued under it accumulates on that node. When
// profiling is off the node stays nil and the whole mechanism is free.
// The layer is carried even then, so the data primitives' ledger records
// name the layer that touched the bytes. Ctx is six words, small enough to
// pass in registers on the per-packet paths.
type Ctx struct {
	K    *Kernel
	P    *sim.Proc
	Task *Task // nil in interrupt context

	node  *prof.Node
	flow  int
	layer obs.Layer
}

// TaskCtx returns a process-context Ctx for task t running in p.
func (k *Kernel) TaskCtx(p *sim.Proc, t *Task) Ctx {
	return Ctx{K: k, P: p, Task: t}
}

// IntrCtx returns an interrupt-context Ctx running in p (normally the
// interrupt daemon's process).
func (k *Kernel) IntrCtx(p *sim.Proc) Ctx {
	return Ctx{K: k, P: p}
}

// In returns a Ctx one layer frame deeper: CPU time charged through the
// result is attributed to layer l under this context's stack. Free (nil
// node chain) when profiling is disabled; no name is looked up either way.
func (c Ctx) In(l obs.Layer) Ctx {
	c.layer = l
	n := c.node
	if n == nil {
		if c.K.Prof == nil {
			return c
		}
		n = c.K.fallback(c.Task) // where Charge lands un-framed work
	}
	c.node = n.Layer(l)
	return c
}

// WithFlow returns a Ctx whose charges are attributed to flow (a TCP local
// port, say), so the profile can split time per connection.
func (c Ctx) WithFlow(flow int) Ctx {
	c.flow = flow
	return c
}

// Charge accounts d of CPU time in category cat: as the task's system time
// in process context, or misattributed to the current task in interrupt
// context.
func (c Ctx) Charge(d units.Time, cat Category) {
	if c.Task == nil {
		c.K.intrWorkAt(c.P, d, cat, c.node, c.flow)
		return
	}
	c.K.workAt(c.P, c.Task, d, cat, true, c.node, c.flow)
}

// StreamSeg maps buffer offset 0 to stream byte base of flow, unclipped.
// The data primitives below record their byte ranges in the data-touch
// ledger through such a segment g, the way a device maps a packet through
// its span's Seg, with buffer offsets in place of packet offsets. The zero
// Seg (Len 0) counts every touch as unattributed rather than silently lost.
func StreamSeg(flow int, base units.Size) obs.Seg {
	return obs.Seg{Flow: flow, Len: units.Size(1) << 62, PayloadOff: -base}
}

// SpanSeg is StreamSeg driven by the segment sp carries: buffer offset 0
// maps to stream byte base, records clip to the segment's payload window
// [Off, Off+Len), and its retransmit flag and descriptor id carry into the
// records. Used where a primitive's buffer spans more than the payload
// (e.g. a checksum over transport header + payload).
func SpanSeg(sp *obs.Span, base units.Size) obs.Seg {
	g := sp.Seg()
	g.PayloadOff = g.Off - base
	return g
}

// CopyCharge charges this context for CPU-copying n bytes at buffer offset
// off and records the touch through g; the caller moves the bytes.
func (c Ctx) CopyCharge(off, n, region units.Size, g obs.Seg) {
	c.Charge(c.K.Mach.CopyTime(n, region), CatCopy)
	c.K.Led.TouchSeg(g, off, n, ledger.CPUCopy, c.layer, 0)
}

// CopyFromUIO copies n bytes at offset off of u into dst, charging copy
// time in this context (the socket layer's copyin on the traditional path).
func (c Ctx) CopyFromUIO(u *mem.UIO, off, n units.Size, dst []byte, region units.Size, g obs.Seg) {
	c.CopyCharge(off, n, region, g)
	u.ReadAt(dst, off, n)
}

// CopyToUIO copies src into u at offset off, charging copy time in this
// context (the traditional receive copyout).
func (c Ctx) CopyToUIO(u *mem.UIO, off units.Size, src []byte, region units.Size, g obs.Seg) {
	c.CopyCharge(off, units.Size(len(src)), region, g)
	u.WriteAt(src, off)
}

// ChecksumCharge charges this context for software-checksumming n bytes and
// records the touch. The caller sums the bytes where they lie (the stack's
// data sits in mbuf chains, which the kernel does not know).
func (c Ctx) ChecksumCharge(n, region units.Size, g obs.Seg) {
	c.Charge(c.K.Mach.CsumTime(n, region), CatCsum)
	c.K.Led.TouchSeg(g, 0, n, ledger.CPUCsum, c.layer, 0)
}
