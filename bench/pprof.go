package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped profile.proto message.
// The reader below decodes only what folding needs — samples, locations,
// functions and the string table — so the benchmark stays stdlib-only.

// stack is one sample: function names leaf first, and how many times the
// profiler saw it.
type stack struct {
	funcs []string
	count int64
}

// protoBuf walks one protobuf message's fields.
type protoBuf struct{ b []byte }

var errProto = errors.New("bench: malformed profile.proto")

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next returns the next field: its number, its varint value (wire type 0)
// or its bytes (wire type 2, data non-nil). Fixed-width fields are
// skipped over.
func (p *protoBuf) next() (field int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1:
		err = p.skip(8)
	case 5:
		err = p.skip(4)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, errProto
			}
			data, p.b = p.b[:n:n], p.b[n:]
		}
	default:
		err = errProto
	}
	return field, v, data, err
}

func (p *protoBuf) skip(n int) error {
	if len(p.b) < n {
		return errProto
	}
	p.b = p.b[n:]
	return nil
}

// uints decodes a repeated integer field, which arrives either packed
// (data set) or one value at a time (v set).
func uints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := protoBuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a gzipped profile.proto into stacks, using the
// first sample value (the sample count of a CPU profile).
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("bench: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("bench: profile: %w", err)
	}

	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost inlined frame first
		funcName = map[uint64]uint64{}   // function id → string table index
		strs     []string
	)
	p := protoBuf{raw}
	for len(p.b) > 0 {
		field, _, data, err := p.next()
		if err != nil {
			return nil, err
		}
		m := protoBuf{data}
		switch field {
		case 2: // Sample
			var s sample
			var vals []uint64
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locs, err = uints(s.locs, v, d); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = uints(vals, v, d); err != nil {
						return nil, err
					}
				}
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					l := protoBuf{d}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			for len(m.b) > 0 {
				f, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}

	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, errProto
				}
				st.funcs = append(st.funcs, strs[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// layerPrefix is the import-path prefix of the simulator's layers: the
// layer of repro/internal/obs/prof.(*Node).Add is "obs".
const layerPrefix = "repro/internal/"

// hostLayers are the layers host CPU is folded onto; a sample with no
// frame in any of them (runtime scheduler and GC threads, the remaining
// internal packages, this benchmark) goes to "other".
var hostLayers = []string{"sim", "kern", "socket", "tcpip", "cabdrv", "cab", "hippi",
	"fabric", "mbuf", "mem", "checksum", "obs", "load", "ttcp", "other"}

// layerOf names the layer a function belongs to, or "".
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, layerPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range hostLayers {
		if l == rest && l != "other" {
			return l
		}
	}
	return ""
}

// Flat classes: what the innermost classified runtime function of a
// sample was doing, whichever layer called it.
const (
	flatSched    = "runtime_sched"
	flatMallocGC = "runtime_malloc_gc"
	flatMem      = "runtime_mem"
	flatHeap     = "event_heap"
)

var flatClasses = []string{flatSched, flatMallocGC, flatMem, flatHeap}

// flatRules map a function-name fragment to its class; the first rule
// that matches wins.
var flatRules = []struct{ frag, class string }{
	{"runtime.memmove", flatMem},
	{"runtime.memclr", flatMem},
	{"container/heap.", flatHeap},
	{"eventHeap", flatHeap},
	{"runtime.chan", flatSched},
	{"runtime.send", flatSched},
	{"runtime.recv", flatSched},
	{"runtime.selectgo", flatSched},
	{"runtime.futex", flatSched},
	{"runtime.schedule", flatSched},
	{"runtime.findRunnable", flatSched},
	{"runtime.park_m", flatSched},
	{"runtime.gopark", flatSched},
	{"runtime.goready", flatSched},
	{"runtime.ready", flatSched},
	{"runtime.execute", flatSched},
	{"runtime.casgstatus", flatSched},
	{"runtime.lock", flatSched},
	{"runtime.unlock", flatSched},
	{"runtime.mcall", flatSched},
	{"runtime.gogo", flatSched},
	{"runtime.goexit", flatSched},
	{"runtime.newproc", flatSched},
	{"runtime.gfget", flatSched},
	{"runtime.gfput", flatSched},
	{"runtime.runq", flatSched},
	{"runtime.globrunq", flatSched},
	{"runtime.wakep", flatSched},
	{"runtime.startm", flatSched},
	{"runtime.stopm", flatSched},
	{"runtime.notesleep", flatSched},
	{"runtime.notewakeup", flatSched},
	{"runtime.resetspinning", flatSched},
	{"runtime.pidle", flatSched},
	{"runtime.mPark", flatSched},
	{"runtime.acquirem", flatSched},
	{"runtime.releasem", flatSched},
	{"runtime.osyield", flatSched},
	{"runtime.usleep", flatSched},
	{"runtime.procyield", flatSched},
	{"runtime.stealWork", flatSched},
	{"runtime.checkTimers", flatSched},
	{"runtime.netpoll", flatSched},
	{"runtime.malloc", flatMallocGC},
	{"runtime.newobject", flatMallocGC},
	{"runtime.makeslice", flatMallocGC},
	{"runtime.growslice", flatMallocGC},
	{"runtime.nextFreeFast", flatMallocGC},
	{"runtime.(*mcache)", flatMallocGC},
	{"runtime.(*mcentral)", flatMallocGC},
	{"runtime.(*mheap)", flatMallocGC},
	{"runtime.(*mspan)", flatMallocGC},
	{"runtime.gc", flatMallocGC},
	{"runtime.(*gc", flatMallocGC},
	{"runtime.scan", flatMallocGC},
	{"runtime.greyobject", flatMallocGC},
	{"runtime.findObject", flatMallocGC},
	{"runtime.markroot", flatMallocGC},
	{"runtime.sweep", flatMallocGC},
	{"runtime.(*sweep", flatMallocGC},
	{"runtime.bgsweep", flatMallocGC},
	{"runtime.bgscavenge", flatMallocGC},
	{"runtime.(*scavenge", flatMallocGC},
	{"runtime.(*pageAlloc)", flatMallocGC},
	{"runtime.wbBuf", flatMallocGC},
	{"runtime.(*wbBuf)", flatMallocGC},
	{"runtime.heapBits", flatMallocGC},
	{"runtime.heapSetType", flatMallocGC},
	{"runtime.typePointers", flatMallocGC},
	{"runtime.spanOf", flatMallocGC},
	{"runtime.deductAssistCredit", flatMallocGC},
	{"runtime.profilealloc", flatMallocGC},
	{"runtime.stackalloc", flatMallocGC},
	{"runtime.stackfree", flatMallocGC},
	{"runtime.malg", flatMallocGC},
}

// runtimeFrame reports whether fn belongs to the Go runtime or to the
// event-heap code, the frames flatOf may look through.
func runtimeFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") || strings.HasPrefix(fn, "container/heap.") ||
		strings.Contains(fn, "eventHeap")
}

// flatOf classifies a stack by its innermost classified function,
// looking outward only through runtime frames: a memmove called from
// tcpip is runtime_mem, time inside tcpip's own code is none of them.
func flatOf(funcs []string) string {
	for _, fn := range funcs {
		for _, r := range flatRules {
			if strings.Contains(fn, r.frag) {
				return r.class
			}
		}
		if !runtimeFrame(fn) {
			return ""
		}
	}
	return ""
}

// fold is a CPU profile summed two ways: by the layer of each sample's
// leaf-most simulator frame (shares sum to 1), and by flat class.
type fold struct {
	samples int64
	layer   map[string]float64
	flat    map[string]float64
}

func foldStacks(stacks []stack) fold {
	f := fold{layer: map[string]float64{}, flat: map[string]float64{}}
	for _, l := range hostLayers {
		f.layer[l] = 0
	}
	for _, c := range flatClasses {
		f.flat[c] = 0
	}
	for _, s := range stacks {
		f.samples += s.count
		layer := "other"
		for _, fn := range s.funcs {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		f.layer[layer] += float64(s.count)
		if c := flatOf(s.funcs); c != "" {
			f.flat[c] += float64(s.count)
		}
	}
	if f.samples > 0 {
		for k := range f.layer {
			f.layer[k] /= float64(f.samples)
		}
		for k := range f.flat {
			f.flat[k] /= float64(f.samples)
		}
	}
	return f
}
