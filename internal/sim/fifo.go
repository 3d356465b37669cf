package sim

// fifo is a first-in-first-out ring of values in one backing array that is
// reused for the life of its owner: once it has grown to the high-water
// depth, push and pop allocate nothing. The capacity is a power of two so
// positions wrap with a mask.
type fifo[T any] struct {
	buf  []T
	head int // position of the oldest element
	n    int
}

func (f *fifo[T]) len() int { return f.n }

// at returns the i-th oldest element, 0 ≤ i < len.
func (f *fifo[T]) at(i int) T { return f.buf[(f.head+i)&(len(f.buf)-1)] }

func (f *fifo[T]) push(v T) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
}

// pop removes and returns the oldest element; the fifo must not be empty.
func (f *fifo[T]) pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero // do not retain what the element pointed to
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v
}

func (f *fifo[T]) grow() {
	buf := make([]T, max(4, 2*len(f.buf)))
	for i := 0; i < f.n; i++ {
		buf[i] = f.at(i)
	}
	f.buf, f.head = buf, 0
}
