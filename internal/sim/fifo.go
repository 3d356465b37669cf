package sim

// FIFO is a first-in-first-out ring of values in one backing array that is
// reused for the life of its owner: once it has grown to the high-water
// depth, Push and Pop allocate nothing. The capacity is a power of two so
// positions wrap with a mask. The zero value is an empty FIFO.
type FIFO[T any] struct {
	buf  []T
	head int // position of the oldest element
	n    int
}

// Len returns the number of elements held.
func (f *FIFO[T]) Len() int { return f.n }

// At returns the i-th oldest element, 0 ≤ i < Len.
func (f *FIFO[T]) At(i int) T { return f.buf[(f.head+i)&(len(f.buf)-1)] }

// Peek returns the oldest element in place; the FIFO must not be empty.
func (f *FIFO[T]) Peek() *T { return &f.buf[f.head] }

// Push appends v.
func (f *FIFO[T]) Push(v T) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
}

// Pop removes and returns the oldest element; the FIFO must not be empty.
func (f *FIFO[T]) Pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero // do not retain what the element pointed to
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v
}

func (f *FIFO[T]) grow() {
	buf := make([]T, max(4, 2*len(f.buf)))
	for i := 0; i < f.n; i++ {
		buf[i] = f.At(i)
	}
	f.buf, f.head = buf, 0
}
