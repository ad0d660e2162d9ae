// Package ring provides the fixed-capacity ring buffers behind heartbeat
// histories: Buffer, a plain generic ring for externally synchronized use,
// and two single-producer rings that run-length encode timestamps — SP, a
// lock-free multi-reader ring (per-thread local histories), and SPSC, a
// single-consumer ring with plain slots (the per-thread global shards the
// aggregator merges).
//
// Buffer is not safe for concurrent use; callers synchronize externally.
// SP allows one pushing goroutine and any number of concurrent readers.
// SPSC allows one pushing goroutine and one consumer that the producer
// never laps.
package ring

// Buffer is a fixed-capacity ring retaining the last cap values.
type Buffer[T any] struct {
	buf   []T
	total uint64 // number of values ever pushed
}

// New returns a Buffer retaining the last capacity values.
// It panics if capacity <= 0.
func New[T any](capacity int) *Buffer[T] {
	if capacity <= 0 {
		panic("ring: capacity must be positive")
	}
	return &Buffer[T]{buf: make([]T, capacity)}
}

// Cap returns the buffer capacity.
func (b *Buffer[T]) Cap() int { return len(b.buf) }

// Len returns the number of retained values: min(total pushed, capacity).
func (b *Buffer[T]) Len() int {
	if b.total < uint64(len(b.buf)) {
		return int(b.total)
	}
	return len(b.buf)
}

// Total returns the number of values ever pushed.
func (b *Buffer[T]) Total() uint64 { return b.total }

// Push appends v, evicting the oldest value if the buffer is full.
func (b *Buffer[T]) Push(v T) {
	b.buf[b.total%uint64(len(b.buf))] = v
	b.total++
}

// Skip advances the buffer past n values without storing them, as if n
// zero values had been pushed: the skipped positions read back as zero
// values and older values they displace are evicted. The batched heartbeat
// aggregator uses this to account for records that a bounded history would
// immediately discard, without materializing them.
func (b *Buffer[T]) Skip(n uint64) {
	var zero T
	clear := n
	if clear > uint64(len(b.buf)) {
		clear = uint64(len(b.buf))
	}
	for i := uint64(0); i < clear; i++ {
		b.buf[(b.total+i)%uint64(len(b.buf))] = zero
	}
	b.total += n
}

// At returns the i-th retained value, 0 being the oldest.
// It panics if i is out of [0, Len()).
func (b *Buffer[T]) At(i int) T {
	n := b.Len()
	if i < 0 || i >= n {
		panic("ring: index out of range")
	}
	start := b.total - uint64(n)
	return b.buf[(start+uint64(i))%uint64(len(b.buf))]
}

// Last returns up to n most recent values, ordered oldest to newest.
// A non-positive n yields nil.
func (b *Buffer[T]) Last(n int) []T {
	if n <= 0 {
		return nil
	}
	have := b.Len()
	if n > have {
		n = have
	}
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := 0; i < n; i++ {
		out[i] = b.At(have - n + i)
	}
	return out
}

// Snapshot returns all retained values, ordered oldest to newest.
func (b *Buffer[T]) Snapshot() []T { return b.Last(b.Len()) }
