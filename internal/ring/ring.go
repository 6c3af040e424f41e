// Package ring provides a growable ring-buffer FIFO for hot-path queues.
// Unlike the q = q[1:] / append idiom it reuses its backing array
// forever: once a queue has grown to its working-set depth, pushing and
// popping never touch the heap.
package ring

// FIFO is a double-ended ring buffer used as a queue: Push appends at the
// back, Pop takes from the front, PopBack from the back. The zero value is
// an empty queue ready to use. Popped slots are zeroed, so a queue of
// slices or pointers never pins what it has handed out.
type FIFO[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the front element
	n    int
}

// Len reports the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the back, doubling the buffer when it is full.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the front element. It panics on an empty queue.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("ring: Pop on empty FIFO")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// PopBack removes and returns the back (most recently pushed) element. It
// panics on an empty queue.
func (q *FIFO[T]) PopBack() T {
	if q.n == 0 {
		panic("ring: PopBack on empty FIFO")
	}
	var zero T
	i := (q.head + q.n - 1) & (len(q.buf) - 1)
	v := q.buf[i]
	q.buf[i] = zero
	q.n--
	return v
}

// Clear empties the queue, keeping its buffer.
func (q *FIFO[T]) Clear() {
	clear(q.buf)
	q.head, q.n = 0, 0
}

// grow doubles the buffer (minimum 8), unwrapping the queue to index 0.
func (q *FIFO[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = buf, 0
}
