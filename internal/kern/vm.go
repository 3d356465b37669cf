package kern

import (
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/units"
)

// VM operation support. Costs follow Table 2 of the paper: pinning,
// unpinning, and mapping have a fixed base cost plus a per-page cost. The
// optional lazy-unpin cache implements the Section 4.4.1 optimization:
// applications that reuse the same buffers repeatedly keep them pinned and
// mapped, amortizing the VM overhead over many IO operations, with lazy
// eviction bounding the number of pages a task can keep pinned.
//
// All charging goes through a Ctx so callers inside a profiled layer stack
// attribute the VM time under their frame; the (p, t) entry points are
// plain process-context wrappers.

// pinRange records a deferred unpin.
type pinRange struct {
	space *mem.AddrSpace
	addr  units.Size
	n     units.Size
	pages int
}

// VM is a kernel's virtual-memory operation interface.
type VM struct {
	k *Kernel

	// LazyUnpin enables the pinned-buffer reuse cache (Section 4.4.1).
	LazyUnpin bool
	// MaxLazyPages bounds the pages a host may keep lazily pinned.
	MaxLazyPages int
	// PinHitCheck is the cost of recognizing an already-pinned buffer.
	PinHitCheck units.Time

	deferred      []pinRange
	deferredPages int

	// Counters for ablation reporting.
	Pins, PinHits, Unpins, LazyEvictions, Maps int
}

// NewVM returns the VM interface for k with the lazy cache disabled (the
// paper's measured configuration pins and unpins on every operation).
func NewVM(k *Kernel) *VM {
	v := &VM{k: k, MaxLazyPages: 4096, PinHitCheck: 2 * units.Microsecond}
	if r := k.Obs; r != nil {
		r.Func("vm.pins", func() int64 { return int64(v.Pins) })
		r.Func("vm.pin_hits", func() int64 { return int64(v.PinHits) })
		r.Func("vm.unpins", func() int64 { return int64(v.Unpins) })
		r.Func("vm.lazy_evictions", func() int64 { return int64(v.LazyEvictions) })
		r.Func("vm.maps", func() int64 { return int64(v.Maps) })
	}
	return v
}

// PinBuf pins the pages of [addr, addr+n) in space on behalf of t,
// charging Table 2's pin cost. With the lazy cache enabled, re-pinning a
// still-pinned buffer costs only the hit check.
func (v *VM) PinBuf(p *sim.Proc, t *Task, space *mem.AddrSpace, addr, n units.Size) {
	v.pin(v.k.TaskCtx(p, t), space, addr, n)
}

func (v *VM) pin(c Ctx, space *mem.AddrSpace, addr, n units.Size) {
	pages := space.PageSpan(addr, n)
	if pages == 0 {
		return
	}
	if v.LazyUnpin {
		if i := v.findDeferred(space, addr, n); i >= 0 {
			// Cache hit: the buffer is still pinned from a previous IO.
			v.deferredPages -= v.deferred[i].pages
			v.deferred = append(v.deferred[:i], v.deferred[i+1:]...)
			v.PinHits++
			c.Charge(v.PinHitCheck, CatVM)
			return
		}
	}
	v.Pins++
	space.Pin(addr, n)
	c.Charge(v.k.Mach.PinTime(pages), CatVM)
}

// UnpinBuf undoes PinBuf. With the lazy cache the unpin is deferred; old
// deferred ranges are evicted (really unpinned) once MaxLazyPages is
// exceeded, charging their unpin cost at eviction time.
func (v *VM) UnpinBuf(p *sim.Proc, t *Task, space *mem.AddrSpace, addr, n units.Size) {
	v.unpin(v.k.TaskCtx(p, t), space, addr, n)
}

func (v *VM) unpin(c Ctx, space *mem.AddrSpace, addr, n units.Size) {
	pages := space.PageSpan(addr, n)
	if pages == 0 {
		return
	}
	if v.LazyUnpin {
		v.deferred = append(v.deferred, pinRange{space, addr, n, pages})
		v.deferredPages += pages
		for v.deferredPages > v.MaxLazyPages && len(v.deferred) > 0 {
			old := v.deferred[0]
			v.deferred = v.deferred[1:]
			v.deferredPages -= old.pages
			old.space.Unpin(old.addr, old.n)
			v.LazyEvictions++
			c.Charge(v.k.Mach.UnpinTime(old.pages), CatVM)
		}
		return
	}
	v.Unpins++
	space.Unpin(addr, n)
	c.Charge(v.k.Mach.UnpinTime(pages), CatVM)
}

// findDeferred locates a deferred range exactly covering [addr, addr+n).
func (v *VM) findDeferred(space *mem.AddrSpace, addr, n units.Size) int {
	for i, r := range v.deferred {
		if r.space == space && r.addr <= addr && addr+n <= r.addr+r.n {
			return i
		}
	}
	return -1
}

// MapBuf maps [addr, addr+n) of a user space into kernel space, charging
// Table 2's map cost. The socket layer performs this incrementally, one
// socket-buffer's worth at a time, because OSF/1 drivers lack the
// application context needed to do it at DMA time (Section 4.4.1).
func (v *VM) MapBuf(p *sim.Proc, t *Task, space *mem.AddrSpace, addr, n units.Size) {
	v.mapKernel(v.k.TaskCtx(p, t), space, addr, n)
}

func (v *VM) mapKernel(c Ctx, space *mem.AddrSpace, addr, n units.Size) {
	pages := space.PageSpan(addr, n)
	if pages == 0 {
		return
	}
	v.Maps++
	space.MapKernel(addr, n)
	c.Charge(v.k.Mach.MapTime(pages), CatVM)
}

// UnmapBuf clears a kernel mapping; Table 2 lists no unmap cost and the
// paper's analysis charges none, so neither do we.
func (v *VM) UnmapBuf(space *mem.AddrSpace, addr, n units.Size) {
	space.UnmapKernel(addr, n)
}

// PinUIO pins every segment of [off, off+n) of u, charging in c.
func (v *VM) PinUIO(c Ctx, u *mem.UIO, off, n units.Size) {
	var sb mem.SegBuf
	for _, seg := range u.Segments(off, n, sb[:0]) {
		v.pin(c, u.Space, seg.Addr, seg.Len)
	}
}

// UnpinUIO undoes PinUIO.
func (v *VM) UnpinUIO(c Ctx, u *mem.UIO, off, n units.Size) {
	var sb mem.SegBuf
	for _, seg := range u.Segments(off, n, sb[:0]) {
		v.unpin(c, u.Space, seg.Addr, seg.Len)
	}
}

// MapUIO maps every segment of [off, off+n) of u into kernel space.
func (v *VM) MapUIO(c Ctx, u *mem.UIO, off, n units.Size) {
	var sb mem.SegBuf
	for _, seg := range u.Segments(off, n, sb[:0]) {
		v.mapKernel(c, u.Space, seg.Addr, seg.Len)
	}
}
