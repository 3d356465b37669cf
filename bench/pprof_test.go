package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var spinSink uint64

//go:noinline
func spinForProfile(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := uint64(0); i < 1e5; i++ {
			spinSink += i * i
		}
	}
}

func TestParseProfileCapturedHere(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinForProfile(250 * time.Millisecond)
	pprof.StopCPUProfile()

	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spinning int64
	for _, s := range stacks {
		total += s.count
		for _, fn := range s.funcs {
			if strings.HasSuffix(fn, ".spinForProfile") {
				spinning += s.count
				break
			}
		}
	}
	// 250 ms at 100 Hz is ~25 samples; a loaded machine delivers fewer.
	if total < 5 || spinning*2 < total {
		t.Fatalf("%d samples, %d in spinForProfile; want most of at least 5", total, spinning)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

func TestFoldStacks(t *testing.T) {
	stacks := []stack{
		// memmove called from tcpip: tcpip's share, runtime_mem flat.
		{funcs: []string{"runtime.memmove", "repro/internal/tcpip.(*Conn).output", "repro/internal/sim.(*Engine).Go.func1"}, count: 4},
		// the event heap inside sim.
		{funcs: []string{"repro/internal/sim.eventHeap.Less", "container/heap.down", "container/heap.Pop", "repro/internal/sim.(*Engine).Step"}, count: 2},
		// a nested package folds onto its top-level layer.
		{funcs: []string{"repro/internal/obs/prof.(*Node).Add", "repro/internal/kern.(*Kernel).Work"}, count: 1},
		// scheduler threads have no simulator frame at all.
		{funcs: []string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, count: 2},
		// a layer's own code belongs to no flat class.
		{funcs: []string{"repro/internal/checksum.Sum", "repro/internal/cab.(*CAB).sdmaProc"}, count: 1},
		// allocation reached through an unclassified runtime helper.
		{funcs: []string{"runtime.nanotime", "runtime.mallocgc", "runtime.newobject", "repro/internal/mbuf.NewCluster"}, count: 0},
	}
	f := foldStacks(stacks)
	if f.samples != 10 {
		t.Fatalf("samples = %d", f.samples)
	}
	want := map[string]float64{"tcpip": 0.4, "sim": 0.2, "obs": 0.1, "other": 0.2, "checksum": 0.1}
	var sum float64
	for l, v := range f.layer {
		sum += v
		if math.Abs(v-want[l]) > 1e-12 {
			t.Errorf("host_cpu_share.%s = %v, want %v", l, v, want[l])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("layer shares sum to %v", sum)
	}
	if f.flat[flatMem] != 0.4 || f.flat[flatHeap] != 0.2 || f.flat[flatSched] != 0.2 || f.flat[flatMallocGC] != 0 {
		t.Errorf("flat = %v", f.flat)
	}
	if got := flatOf(stacks[5].funcs); got != flatMallocGC {
		t.Errorf("flatOf(mallocgc under nanotime) = %q", got)
	}
	if got := layerOf("repro/internal/core.NewTestbed"); got != "" {
		t.Errorf("core is not a folded layer, got %q", got)
	}
}
