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
// context. It lets shared stack code charge CPU time correctly without
// caring who called it.
//
// Ctx also carries the layer-stack position for the virtual-time profiler:
// each layer pushes a frame with In ("socket", "tcp_output", ...), and every
// Charge issued under it accumulates on that node. When profiling is off
// the node stays nil and the whole mechanism is free.
type Ctx struct {
	K    *Kernel
	P    *sim.Proc
	Task *Task // nil in interrupt context
	Intr bool

	node *prof.Node
	flow int

	// Data-touch ledger attribution (see OnStream/OnStreamProv): the
	// copy/checksum primitives record their byte ranges through seg the
	// way a device maps a packet through its span's Seg, with buffer
	// offsets in place of packet offsets. Its zero value (Len 0) counts
	// every touch as unattributed. layer is the most recent In frame as
	// bound in the ledger's name table, carried even when profiling is off
	// so ledger records name the layer that touched the bytes.
	layer obs.Name
	seg   obs.Seg
}

// TaskCtx returns a process-context Ctx for task t running in p.
func (k *Kernel) TaskCtx(p *sim.Proc, t *Task) Ctx {
	return Ctx{K: k, P: p, Task: t}
}

// IntrCtx returns an interrupt-context Ctx running in p (normally the
// interrupt daemon's process).
func (k *Kernel) IntrCtx(p *sim.Proc) Ctx {
	return Ctx{K: k, P: p, Intr: true}
}

// base returns the node In stacks its first frame on: the per-task or
// interrupt fallback, matching where Charge lands un-framed work.
func (c Ctx) base() *prof.Node {
	if c.Intr {
		return c.K.intrNode()
	}
	return c.K.taskNode(c.Task)
}

// In returns a Ctx one layer frame deeper: CPU time charged through the
// result is attributed to layer under this context's stack. Free (nil
// node chain) when profiling is disabled.
func (c Ctx) In(layer string) Ctx {
	c.layer = c.K.Led.Layer(layer)
	n := c.node
	if n == nil {
		if c.K.Prof == nil {
			return c
		}
		n = c.base()
	}
	c.node = n.Child(layer)
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
	if c.Intr {
		c.K.intrWorkAt(c.P, d, cat, c.node, c.flow)
		return
	}
	c.K.workAt(c.P, c.Task, d, cat, true, c.node, c.flow)
}

// OnStream returns a Ctx whose data primitives record their byte ranges
// in the data-touch ledger against flow, with buffer offset 0 mapping to
// stream byte base. Without it (or with the ledger disabled) unmappable
// touches are counted as unattributed rather than silently lost.
func (c Ctx) OnStream(flow int, base units.Size) Ctx {
	c.seg = obs.Seg{Flow: flow, Len: units.Size(1) << 62, PayloadOff: -base}
	return c
}

// OnStreamProv is OnStream driven by the segment sp carries: buffer
// offset 0 maps to stream byte base, records clip to the segment's payload
// window [Off, Off+Len), and its retransmit flag and descriptor id carry
// into the records. Used where a primitive's buffer spans more than the
// payload (e.g. a checksum over transport header + payload).
func (c Ctx) OnStreamProv(sp *obs.Span, base units.Size) Ctx {
	c.seg = sp.Seg()
	c.seg.PayloadOff = c.seg.Off - base
	return c
}

// touch records a data touch at buffer offset off, length n, mapped to
// stream coordinates. Free (one nil check) when the ledger is off.
func (c Ctx) touch(kind ledger.Kind, off, n units.Size) {
	c.K.Led.TouchSeg(c.seg, off, n, kind, c.layer, 0)
}

// CopyFromUIO copies n bytes at offset off of u into dst, charging copy
// time in this context (the socket layer's copyin on the traditional path).
func (c Ctx) CopyFromUIO(u *mem.UIO, off, n units.Size, dst []byte, region units.Size) {
	c.Charge(c.K.Mach.CopyTime(n, region), CatCopy)
	c.touch(ledger.CPUCopy, off, n)
	u.ReadAt(dst, off, n)
}

// CopyToUIO copies src into u at offset off, charging copy time in this
// context (the traditional receive copyout).
func (c Ctx) CopyToUIO(u *mem.UIO, off units.Size, src []byte, region units.Size) {
	c.Charge(c.K.Mach.CopyTime(units.Size(len(src)), region), CatCopy)
	c.touch(ledger.CPUCopy, off, units.Size(len(src)))
	u.WriteAt(src, off)
}

// ChecksumCharge charges this context for software-checksumming n bytes and
// records the touch. The caller sums the bytes where they lie (the stack's
// data sits in mbuf chains, which the kernel does not know).
func (c Ctx) ChecksumCharge(n, region units.Size) {
	c.Charge(c.K.Mach.CsumTime(n, region), CatCsum)
	c.touch(ledger.CPUCsum, 0, n)
}
