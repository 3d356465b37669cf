package obs

import "math/bits"

// Chunk sizes of a Log: the first chunk holds 1<<logFirstShift records,
// each next one twice as many up to 1<<logChunkShift, and every chunk from
// there on that many.
const (
	logFirstShift = 3
	logChunkShift = 12
)

// chunkLen is the chunk geometry a Log and a Series ring share: chunk k
// holds 1<<min(first+k, last) items, so chunks double from 1<<first up to
// 1<<last and stay that size. A store that starts small pays for a few
// items only, and one that grows large never copies.
func chunkLen(k int, first, last uint) int {
	return 1 << min(first+uint(k), last)
}

// chunkAt returns the chunk and the offset in it that hold item i of a
// store with chunkLen's geometry. It needs no table, and with constant
// shifts it inlines to a few instructions.
func chunkAt(i int, first, last uint) (k, off int) {
	growing := 1<<last - 1<<first // the items the growing chunks hold
	if i < growing {
		j := i + 1<<first
		s := uint(bits.Len(uint(j)) - 1)
		return int(s - first), j - 1<<s
	}
	j := i - growing
	return int(last-first) + j>>last, j & (1<<last - 1)
}

// Log is the recorders' append-only record store: the trace's Chrome
// events, the causal recorder's events, the ledger's touches and netobs's
// per-flow samples. Records live in chunks that never move once
// allocated, so an append never copies or re-zeroes an earlier record (a
// slice grown by append rewrites each of a million records about five
// times on the way). Chunks double from 8 records up to 4096, so a log of
// a few records costs what a slice of them would.
//
// A Log holds at most its bound. An append past the bound keeps nothing
// and is counted as dropped, and every recorder exports that count, so a
// truncated record is never silent. The zero Log has bound 0: make one
// with NewLog. Like the simulation that fills it, a Log is single-threaded.
type Log[T any] struct {
	full    [][]T // the filled chunks, oldest first
	tail    []T   // the chunk being filled
	n       int
	max     int
	dropped int64
}

// NewLog returns an empty log that keeps at most max records.
func NewLog[T any](max int) Log[T] {
	return Log[T]{max: max}
}

// Append adds v at index Len() and reports whether it was kept; past the
// bound it counts v as dropped instead.
func (l *Log[T]) Append(v T) bool {
	if l.n >= l.max {
		l.dropped++
		return false
	}
	if len(l.tail) == cap(l.tail) {
		if l.tail != nil {
			l.full = append(l.full, l.tail)
		}
		l.tail = make([]T, 0, chunkLen(len(l.full), logFirstShift, logChunkShift))
	}
	l.tail = append(l.tail, v)
	l.n++
	return true
}

// Len returns the number of records kept.
func (l *Log[T]) Len() int { return l.n }

// Dropped returns the number of appends refused by the bound.
func (l *Log[T]) Dropped() int64 { return l.dropped }

// At returns a pointer to record i (0 ≤ i < Len()). The record stays at
// that address for the log's life, and a write through the pointer is
// what Slice and every later At see.
func (l *Log[T]) At(i int) *T {
	if uint(i) >= uint(l.n) {
		panic("obs: log index out of range")
	}
	k, off := chunkAt(i, logFirstShift, logChunkShift)
	if k == len(l.full) {
		return &l.tail[off]
	}
	return &l.full[k][off]
}

// Slice returns a copy of the kept records in append order, or nil when
// there are none.
func (l *Log[T]) Slice() []T {
	if l.n == 0 {
		return nil
	}
	out := make([]T, 0, l.n)
	for _, c := range l.full {
		out = append(out, c...)
	}
	return append(out, l.tail...)
}
