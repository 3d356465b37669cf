package kern

import (
	"repro/internal/checksum"
	"repro/internal/mem"
	"repro/internal/obs/ledger"
	"repro/internal/sim"
	"repro/internal/units"
)

// Data-touching primitives. These are the only places the simulated CPU
// reads or writes packet payload: the per-byte costs the paper sets out to
// eliminate all flow through here, so the accounting in CatCopy and
// CatCsum is exactly the "per-byte overhead" of the analysis in
// Section 7.3. region is the working-set size used by the cache-locality
// model.

// CopyBytes copies src into dst charging CPU copy time to t.
func (k *Kernel) CopyBytes(p *sim.Proc, t *Task, dst, src []byte, region units.Size) {
	n := units.Size(len(src))
	k.Work(p, t, k.Mach.CopyTime(n, region), CatCopy, true)
	k.Led.Unattributed(ledger.CPUCopy, n)
	copy(dst, src)
}

// CopyFromUIO copies n bytes at offset off of u into dst, charging copy
// time (the socket layer's copyin on the traditional path).
func (k *Kernel) CopyFromUIO(p *sim.Proc, t *Task, u *mem.UIO, off, n units.Size, dst []byte, region units.Size) {
	k.Work(p, t, k.Mach.CopyTime(n, region), CatCopy, true)
	k.Led.Unattributed(ledger.CPUCopy, n)
	u.ReadAt(dst, off, n)
}

// CopyToUIO copies src into u at offset off, charging copy time (the
// traditional receive copyout).
func (k *Kernel) CopyToUIO(p *sim.Proc, t *Task, u *mem.UIO, off units.Size, src []byte, region units.Size) {
	k.Work(p, t, k.Mach.CopyTime(units.Size(len(src)), region), CatCopy, true)
	k.Led.Unattributed(ledger.CPUCopy, units.Size(len(src)))
	u.WriteAt(src, off)
}

// ChecksumRead computes the ones-complement partial sum of b in software,
// charging checksum-read time to t.
func (k *Kernel) ChecksumRead(p *sim.Proc, t *Task, b []byte, region units.Size) uint32 {
	k.Work(p, t, k.Mach.CsumTime(units.Size(len(b)), region), CatCsum, true)
	k.Led.Unattributed(ledger.CPUCsum, units.Size(len(b)))
	return checksum.Sum(b)
}

// IntrChecksumRead is ChecksumRead in interrupt context (receive-side
// software verification on the traditional path).
func (k *Kernel) IntrChecksumRead(p *sim.Proc, b []byte, region units.Size) uint32 {
	k.IntrWork(p, k.Mach.CsumTime(units.Size(len(b)), region), CatCsum)
	k.Led.Unattributed(ledger.CPUCsum, units.Size(len(b)))
	return checksum.Sum(b)
}

// IntrCopyBytes copies src into dst charging copy time in interrupt
// context (e.g. WCAB→regular conversion for in-kernel consumers).
func (k *Kernel) IntrCopyBytes(p *sim.Proc, dst, src []byte, region units.Size) {
	k.IntrWork(p, k.Mach.CopyTime(units.Size(len(src)), region), CatCopy)
	k.Led.Unattributed(ledger.CPUCopy, units.Size(len(src)))
	copy(dst, src)
}
