// Package units defines the base quantities used throughout the simulator:
// virtual time, data sizes, and data rates.
//
// Virtual time is an int64 nanosecond count so that event ordering is exact
// and the simulation is deterministic; rates are expressed in bits per
// second to match the Mbit/second units the paper reports.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Time is a point in (or span of) virtual simulation time, in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Size is a data size in bytes.
type Size int64

// Common sizes.
const (
	Byte Size = 1
	KB   Size = 1024 * Byte
	MB   Size = 1024 * KB
)

func (s Size) String() string {
	switch {
	case s >= MB && s%MB == 0:
		return fmt.Sprintf("%dMB", int64(s/MB))
	case s >= KB && s%KB == 0:
		return fmt.Sprintf("%dKB", int64(s/KB))
	default:
		return fmt.Sprintf("%dB", int64(s))
	}
}

// ParseSize reads a byte count written 512, 64K or 4M (k and m too): a
// whole number of bytes, kilobytes or megabytes, not negative, that fits a
// Size.
func ParseSize(s string) (Size, error) {
	mult, num := Byte, s
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, num = KB, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, num = MB, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/int64(mult) {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return Size(n) * mult, nil
}

// Rate is a data rate in bits per second.
type Rate float64

// Common rates.
const (
	BitPerSec  Rate = 1
	Kbps       Rate = 1e3
	Mbps       Rate = 1e6
	Gbps       Rate = 1e9
	BytePerSec Rate = 8
	// MBytePerSec is 10^6 bytes/second, the convention used for media
	// rates such as HIPPI's 100 MByte/second line rate.
	MBytePerSec Rate = 8e6
)

// Mbit returns the rate in Mbit/second, the unit used in the paper's plots.
func (r Rate) Mbit() float64 { return float64(r) / float64(Mbps) }

func (r Rate) String() string { return fmt.Sprintf("%.1fMb/s", r.Mbit()) }

// TimeFor returns the time needed to move n bytes at rate r.
// A zero or negative rate yields zero time (infinitely fast), which keeps
// "disabled" cost entries harmless.
func (r Rate) TimeFor(n Size) Time {
	if r <= 0 || n <= 0 {
		return 0
	}
	bits := float64(n) * 8
	return Time(bits / float64(r) * float64(Second))
}

// RateOf returns the rate achieved moving n bytes in d time.
func RateOf(n Size, d Time) Rate {
	if d <= 0 {
		return 0
	}
	return Rate(float64(n) * 8 / d.Seconds())
}
