package ring

import (
	"math"
	"sync/atomic"
)

// SPSC is a single-producer, single-consumer heartbeat ring: the storage
// behind a heartbeat Thread's global shard, whose only reader is the
// aggregator's merge. It keeps SP's run-length layout — a time index of
// (start, time) runs plus tags stored out of line and keyed by seq — but
// its slots are plain fields, not atomics. SP's seqlock exists so that
// readers which may be lapped can detect torn reads; the contract below
// rules such readers out, so every slot write and read is a plain memory
// access. Push issues one atomic store per beat (total), and a second
// (entries) only when the beat opens a new time run.
//
// The contract:
//
//   - One goroutine calls Push. One goroutine at a time calls the consumer
//     methods (Consumed, PeekTime, RunLen, Skip, Next, Release); the caller
//     serializes consumers, e.g. under a mutex.
//   - The consumer reads only records at or below a Total it has loaded.
//     Total and entries are loaded with acquire semantics before any slot
//     is read, so every slot written by those pushes is visible.
//   - The producer never runs more than Cap records, or more than Cap
//     time-index entries, ahead of the position the consumer last
//     published with Release: Push returns that backlog, and the caller
//     must drain and release before pushing at a backlog of Cap. Release
//     publishes only after the consumer is done reading, and Push loads it
//     before writing the next slot, which orders every overwrite after the
//     last read of the slot's previous lap.
//
// The zero value is not usable; construct with NewSPSC.
type SPSC struct {
	// Read-only after construction.
	idx  []run
	tags []tagSlot
	mask uint64
	_    [cacheLine]byte

	// Written by the producer on every beat.
	total    atomic.Uint64 // records ever pushed
	entries  atomic.Uint64 // time-index entries ever written
	seq      uint64        // producer-private mirror of total
	idxSeq   uint64        // producer-private mirror of entries
	lastTime int64
	_        [cacheLine]byte

	// Written by the consumer once per Release, loaded on every beat.
	released        atomic.Uint64
	releasedEntries atomic.Uint64
	_               [cacheLine]byte

	// Consumer-private, written per consumed record.
	next uint64 // records consumed
	k    uint64 // time-index entry covering next (0 = none yet)
	tm   int64  // time of entry k
	_    [cacheLine]byte
}

// cacheLine separates the fields each side writes, so a merge running on
// one core does not steal the cache line the producer beats on. The
// trailing pad does the same for a neighbouring ring's allocation.
const cacheLine = 64

// run marks that records from start onward carry time, until the next
// entry's start.
type run struct {
	start uint64
	time  int64
}

// tagSlot holds the tag of record seq; a slot whose seq does not match the
// queried record means "tag 0".
type tagSlot struct {
	seq uint64
	tag int64
}

// NewSPSC returns an SPSC ring with room for at least capacity records
// and capacity time runs; the size is rounded up to a power of two.
// It panics if capacity <= 0.
func NewSPSC(capacity int) *SPSC {
	if capacity <= 0 {
		panic("ring: capacity must be positive")
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &SPSC{
		idx:  make([]run, n),
		tags: make([]tagSlot, n),
		mask: uint64(n - 1),
		// math.MinInt64 forces the first push to open a time run.
		lastTime: math.MinInt64,
	}
}

// Cap returns the ring size: the bound on the producer's backlog.
func (r *SPSC) Cap() int { return len(r.idx) }

// Total returns the number of records ever pushed. Safe from any goroutine.
func (r *SPSC) Total() uint64 { return r.total.Load() }

// Backlog returns how many records, or time-index entries if more, have
// been pushed past the consumer's last Release. Safe from any goroutine;
// exact when called by the producer.
func (r *SPSC) Backlog() uint64 {
	return backlog(r.total.Load(), r.entries.Load(), r.released.Load(), r.releasedEntries.Load())
}

func backlog(seq, entries, released, releasedEntries uint64) uint64 {
	n := seq - released
	if e := entries - releasedEntries; e > n {
		n = e
	}
	return n
}

// Push appends a record with the given timestamp and tag and returns the
// backlog after it (see Backlog). Push must only ever be called from one
// goroutine, and only while the backlog is below Cap. It never allocates;
// its only atomic stores are total, and entries when timeNanos differs from
// the previous push's.
//
//hbvet:hotpath
func (r *SPSC) Push(timeNanos, tag int64) uint64 {
	seq := r.seq + 1
	r.seq = seq
	if timeNanos != r.lastTime {
		r.lastTime = timeNanos
		k := r.idxSeq + 1
		r.idxSeq = k
		r.idx[(k-1)&r.mask] = run{start: seq, time: timeNanos}
		r.entries.Store(k)
	}
	if tag != 0 {
		r.tags[(seq-1)&r.mask] = tagSlot{seq: seq, tag: tag}
	}
	r.total.Store(seq)
	return backlog(seq, r.idxSeq, r.released.Load(), r.releasedEntries.Load())
}

// Consumed returns how many records the consumer has consumed.
func (r *SPSC) Consumed() uint64 { return r.next }

// Release publishes the consumer's position: the producer may overwrite
// every slot the consumer has passed. Call it only once the consumed
// records are no longer read from the ring.
func (r *SPSC) Release() {
	r.releasedEntries.Store(r.k)
	r.released.Store(r.next)
}

// advance moves the covering entry forward until it covers seq. Entry k is
// never read again once passed (its time is cached in tm), which is what
// lets Release publish k itself.
func (r *SPSC) advance(seq uint64) {
	published := r.entries.Load()
	for r.k < published {
		e := r.idx[r.k&r.mask] // entry k+1
		if e.start > seq {
			break
		}
		r.k++
		r.tm = e.time
	}
}

// PeekTime returns the timestamp of the next record. It must only be called
// when at least one record is pending.
//
//hbvet:hotpath
func (r *SPSC) PeekTime() int64 {
	r.advance(r.next + 1)
	return r.tm
}

// RunLen reports how many pending records, up to limit, share the next
// record's timestamp run.
//
//hbvet:hotpath
func (r *SPSC) RunLen(limit uint64) uint64 {
	r.advance(r.next + 1)
	end := limit
	if r.k < r.entries.Load() {
		if start := r.idx[r.k&r.mask].start; start-1 < end {
			end = start - 1
		}
	}
	return end - r.next
}

// Skip consumes n records without reconstructing them.
//
//hbvet:hotpath
func (r *SPSC) Skip(n uint64) {
	r.next += n
	r.advance(r.next)
}

// Next reconstructs and consumes the next record. ok is false when no
// record at or below limit is pending.
//
//hbvet:hotpath
func (r *SPSC) Next(limit uint64) (Entry, bool) {
	if r.next >= limit {
		return Entry{}, false
	}
	seq := r.next + 1
	r.advance(seq)
	e := Entry{Seq: seq, Time: r.tm}
	if s := r.tags[(seq-1)&r.mask]; s.seq == seq {
		e.Tag = s.tag
	}
	r.next = seq
	return e, true
}
