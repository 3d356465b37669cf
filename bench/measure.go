package main

import (
	"runtime"
	"syscall"
	"time"
)

// repCost is the host cost of one repetition's timed part.
type repCost struct {
	wall, user, sys float64 // seconds
	mallocs         float64
	allocBytes      float64
	gcCycles        float64
}

func (c repCost) cpu() float64 { return c.user + c.sys }

func wallOf(c repCost) float64    { return c.wall }
func mallocsOf(c repCost) float64 { return c.mallocs }

func tvSec(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// maxRSSMB is a process's peak resident set in MB (Linux reports
// ru_maxrss in KB).
func maxRSSMB(ru *syscall.Rusage) float64 { return float64(ru.Maxrss) / 1024 }

// selfUsage returns this process's user and system CPU seconds and its
// peak resident set in MB.
func selfUsage() (user, sys, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("bench: getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return tvSec(ru.Utime), tvSec(ru.Stime), maxRSSMB(&ru)
}

// measure runs f and returns what it cost the host. The collection before
// the clock starts gives every repetition the same empty heap to start
// from, as a fresh process would, so a repetition pays for its own
// garbage and not for its predecessor's.
func measure(f func()) repCost {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	u0, s0, _ := selfUsage()
	t0 := time.Now()
	f()
	wall := time.Since(t0)
	u1, s1, _ := selfUsage()
	runtime.ReadMemStats(&m1)
	return repCost{
		wall:       wall.Seconds(),
		user:       u1 - u0,
		sys:        s1 - s0,
		mallocs:    float64(m1.Mallocs - m0.Mallocs),
		allocBytes: float64(m1.TotalAlloc - m0.TotalAlloc),
		gcCycles:   float64(m1.NumGC - m0.NumGC),
	}
}

// column extracts one field from every cost.
func column(cs []repCost, f func(repCost) float64) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = f(c)
	}
	return out
}

// medianOf is the median of one field over the costs.
func medianOf(cs []repCost, f func(repCost) float64) float64 { return median(column(cs, f)) }
