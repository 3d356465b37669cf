package units

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{3 * Microsecond, "3.000us"},
		{1500 * Microsecond, "1.500ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestSizeString(t *testing.T) {
	cases := []struct {
		in   Size
		want string
	}{
		{100, "100B"},
		{4 * KB, "4KB"},
		{3 * MB, "3MB"},
		{KB + 1, "1025B"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

// A negative value prints as "-" and its magnitude's scaled form, except
// the one value whose magnitude does not fit its type, which prints raw.
func TestNegativeString(t *testing.T) {
	for _, c := range []struct {
		in   fmt.Stringer
		want string
	}{
		{Time(-500), "-500ns"},
		{-Time(1), "-1ns"},
		{-1500 * Microsecond, "-1.500ms"},
		{-Millisecond, "-1.000ms"},
		{-2 * Second, "-2.000s"},
		{Time(math.MinInt64), "-9223372036854775808ns"},
		{Time(math.MinInt64 + 1), "-9223372036.855s"},
		{-Size(100), "-100B"},
		{-5000 * KB, "-5000KB"},
		{-KB, "-1KB"},
		{-3 * MB, "-3MB"},
		{-(KB + 1), "-1025B"},
		{Size(math.MinInt64), "-9223372036854775808B"},
		{Size(math.MinInt64 + 1), "-9223372036854775807B"},
	} {
		if got := c.in.String(); got != c.want {
			t.Errorf("%T(%v): String() = %q, want %q", c.in, c.in, got, c.want)
		}
	}
}

func TestRateTimeFor(t *testing.T) {
	// 100 Mb/s moves 1 MB in ~83.9 ms.
	r := 100 * Mbps
	d := r.TimeFor(1 * MB)
	ms := float64(d) / float64(Millisecond)
	if ms < 83 || ms > 85 {
		t.Fatalf("1MB at 100Mb/s = %.2fms, want ≈83.9", ms)
	}
	if (0 * Mbps).TimeFor(1*MB) != 0 {
		t.Fatal("zero rate should cost zero time")
	}
	if r.TimeFor(0) != 0 {
		t.Fatal("zero bytes should cost zero time")
	}
}

func TestRateOfInvertsTimeFor(t *testing.T) {
	f := func(kb uint16, mbit uint8) bool {
		n := Size(kb%1024+1) * KB
		r := Rate(mbit%200+1) * Mbps
		d := r.TimeFor(n)
		got := RateOf(n, d)
		// Within 1% (integer nanosecond rounding).
		ratio := float64(got) / float64(r)
		return ratio > 0.99 && ratio < 1.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRateOfZeroDuration(t *testing.T) {
	if RateOf(1*KB, 0) != 0 {
		t.Fatal("zero elapsed should yield zero rate")
	}
}

func TestMBytePerSec(t *testing.T) {
	// HIPPI: 100 MByte/s = 800 Mb/s.
	if got := (100 * MBytePerSec).Mbit(); got != 800 {
		t.Fatalf("100 MByte/s = %.0f Mb/s, want 800", got)
	}
}

func TestSecondsAndMicros(t *testing.T) {
	if (1500 * Millisecond).Seconds() != 1.5 {
		t.Fatal("Seconds conversion wrong")
	}
	if (3 * Microsecond).Micros() != 3 {
		t.Fatal("Micros conversion wrong")
	}
}
