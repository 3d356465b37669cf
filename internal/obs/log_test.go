package obs

import (
	"testing"

	"repro/internal/race"
)

// TestLogChunkSizes: chunks double from 8 records to 4096 and stay there,
// so a log's first records cost what a slice of them would.
func TestLogChunkSizes(t *testing.T) {
	l := NewLog[int](1 << 20)
	const n = logGrowing + 2<<logChunkShift + 5
	for i := 0; i < n; i++ {
		l.Append(i)
	}
	var want []int
	for s := logFirstShift; s < logChunkShift; s++ {
		want = append(want, 1<<s)
	}
	want = append(want, 1<<logChunkShift, 1<<logChunkShift, 1<<logChunkShift)
	var got []int
	for _, c := range l.full {
		if len(c) != cap(c) {
			t.Fatalf("a filled chunk holds %d of %d records", len(c), cap(c))
		}
		got = append(got, cap(c))
	}
	got = append(got, cap(l.tail))
	if len(got) != len(want) {
		t.Fatalf("chunk sizes %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chunk sizes %v, want %v", got, want)
		}
	}
	if len(l.tail) != 5 {
		t.Fatalf("tail holds %d records, want 5", len(l.tail))
	}
	for i := 0; i < n; i++ {
		if v := *l.At(i); v != i {
			t.Fatalf("At(%d) = %d", i, v)
		}
	}
}

var sinkRec *[4]int64

// TestLogSmallAllocOneChunk: a log of a few records costs one allocation,
// its first 8-record chunk, as a slice of them would.
func TestLogSmallAllocOneChunk(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	if n := testing.AllocsPerRun(100, func() {
		l := NewLog[[4]int64](100)
		for i := 0; i < 8; i++ {
			l.Append([4]int64{int64(i)})
		}
		sinkRec = l.At(7)
	}); n != 1 {
		t.Fatalf("an 8-record log made %v allocations, want 1", n)
	}
}

// TestLogAppendNeverMoves: a record keeps its address however much is
// appended after it, and a write through At is what Slice returns.
func TestLogAppendNeverMoves(t *testing.T) {
	l := NewLog[int](1 << 16)
	l.Append(0)
	first := l.At(0)
	for i := 1; i < 20000; i++ {
		l.Append(i)
	}
	if l.At(0) != first {
		t.Fatal("record 0 moved")
	}
	*first = -1
	*l.At(8) = -8       // first record of the second chunk
	*l.At(19999) = -999 // the last one, in the tail
	s := l.Slice()
	if len(s) != 20000 || s[0] != -1 || s[8] != -8 || s[19999] != -999 || s[9] != 9 {
		t.Fatalf("Slice does not show the writes: len %d, %d %d %d %d", len(s), s[0], s[8], s[9], s[19999])
	}
}

// TestLogBoundCountsDrops: past its bound a log keeps nothing and counts
// every refused append; the zero Log has bound 0.
func TestLogBoundCountsDrops(t *testing.T) {
	l := NewLog[int](10)
	for i := 0; i < 15; i++ {
		if kept := l.Append(i); kept != (i < 10) {
			t.Fatalf("Append(%d) kept=%v", i, kept)
		}
	}
	if l.Len() != 10 || l.Dropped() != 5 {
		t.Fatalf("len %d dropped %d, want 10 and 5", l.Len(), l.Dropped())
	}
	if s := l.Slice(); len(s) != 10 || s[9] != 9 {
		t.Fatalf("kept %v", s)
	}
	var z Log[int]
	if z.Append(1) || z.Len() != 0 || z.Dropped() != 1 || z.Slice() != nil {
		t.Fatalf("zero log: len %d dropped %d", z.Len(), z.Dropped())
	}
}

func TestLogAtOutOfRangePanics(t *testing.T) {
	l := NewLog[int](4)
	l.Append(1)
	for _, i := range []int{-1, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) on a 1-record log did not panic", i)
				}
			}()
			l.At(i)
		}()
	}
}

// FuzzLog runs programs of appends, writes through At and reads against a
// plain-slice model with the same bound. Bounds up to 12,000 cover every
// growing chunk, the switch to full-size chunks at 4,088 records and two
// full-size chunks after it.
func FuzzLog(f *testing.F) {
	f.Add(uint16(5), []byte{0x04, 0x01, 0x02, 0x03})
	f.Add(uint16(4100), []byte{0xfc, 0x01, 0x02, 0x05, 0x03})
	f.Add(uint16(11999), []byte{0xfc, 0xfc, 0xfc, 0x0d, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, bound uint16, prog []byte) {
		if len(prog) > 64 {
			prog = prog[:64]
		}
		max := int(bound) % 12000
		l := NewLog[int64](max)
		var model []int64
		var dropped int64
		var first *int64
		next := int64(0)
		for _, b := range prog {
			arg := int(b >> 2)
			switch b & 3 {
			case 0: // append arg²+1 records
				for k := 0; k < arg*arg+1; k++ {
					next++
					want := len(model) < max
					if kept := l.Append(next); kept != want {
						t.Fatalf("Append at len %d of bound %d kept=%v", len(model), max, kept)
					}
					if want {
						model = append(model, next)
					} else {
						dropped++
					}
				}
				if first == nil && l.Len() > 0 {
					first = l.At(0)
				}
			case 1: // write through At
				if len(model) > 0 {
					i := arg * 7919 % len(model)
					*l.At(i) = -next
					model[i] = -next
				}
			case 2: // read every record through At
				for i, v := range model {
					if got := *l.At(i); got != v {
						t.Fatalf("At(%d) = %d, model %d", i, got, v)
					}
				}
			case 3: // read the copy
				s := l.Slice()
				if len(s) != len(model) {
					t.Fatalf("Slice has %d records, model %d", len(s), len(model))
				}
				for i := range s {
					if s[i] != model[i] {
						t.Fatalf("Slice[%d] = %d, model %d", i, s[i], model[i])
					}
				}
			}
			if l.Len() != len(model) || l.Dropped() != dropped {
				t.Fatalf("len %d dropped %d, model %d and %d", l.Len(), l.Dropped(), len(model), dropped)
			}
		}
		if first != nil && l.At(0) != first {
			t.Fatal("record 0 moved")
		}
	})
}
