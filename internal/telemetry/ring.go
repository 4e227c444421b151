package telemetry

// ring is the package's one bounded log: a FIFO holding at most max
// elements that, once full, overwrites its oldest element on push and
// counts the overwrite in dropped. Storage is allocated on the first
// push and grows by doubling up to max, so a ring nobody writes to
// costs nothing. A ring is not synchronized; its owner holds the lock
// and keeps any sequence, ID, or gap bookkeeping of its own.
type ring[T any] struct {
	buf     []T
	head    int    // index of the oldest element
	n       int    // elements held
	max     int    // capacity bound (>= 1)
	dropped uint64 // elements overwritten by push
}

// newRing returns an empty ring bounded at capacity elements.
func newRing[T any](capacity int) ring[T] { return ring[T]{max: capacity} }

// slot claims the position of a new newest element and returns it for
// the caller to fill in place. On a full ring that position held the
// oldest element, which is overwritten and counted.
func (r *ring[T]) slot() *T {
	if r.n == len(r.buf) && len(r.buf) < r.max {
		size := min(max(2*len(r.buf), 16), r.max)
		r.buf = r.appendTo(make([]T, 0, size))[:size]
		r.head = 0
	}
	if r.n == len(r.buf) {
		i := r.head
		r.head = r.wrap(r.head + 1)
		r.dropped++
		return &r.buf[i]
	}
	i := r.wrap(r.head + r.n)
	r.n++
	return &r.buf[i]
}

// push appends v, reporting whether it overwrote the oldest element.
func (r *ring[T]) push(v T) (overwrote bool) {
	d := r.dropped
	*r.slot() = v
	return r.dropped != d
}

// pop removes and returns the oldest element; false when empty.
func (r *ring[T]) pop() (T, bool) {
	var zero T
	if r.n == 0 {
		return zero, false
	}
	v := r.buf[r.head]
	r.buf[r.head] = zero // release what the slot referenced
	r.head = r.wrap(r.head + 1)
	r.n--
	return v, true
}

// at returns the i-th oldest element (0 <= i < len()).
func (r *ring[T]) at(i int) *T { return &r.buf[r.wrap(r.head+i)] }

// len returns the number of elements held.
func (r *ring[T]) len() int { return r.n }

// appendTo appends the held elements to dst, oldest first.
func (r *ring[T]) appendTo(dst []T) []T {
	end := r.head + r.n
	if end <= len(r.buf) {
		return append(dst, r.buf[r.head:end]...)
	}
	dst = append(dst, r.buf[r.head:]...)
	return append(dst, r.buf[:end-len(r.buf)]...)
}

// wrap folds an index in [0, 2*len(buf)) back into the buffer.
func (r *ring[T]) wrap(i int) int {
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}
