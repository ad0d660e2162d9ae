package heartbeat

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ring"
)

// This file implements the batched aggregator behind the sharded beat hot
// path. Each registered Thread owns a single-producer, single-consumer shard
// (ring.SPSC) that GlobalBeat writes into without taking any lock; the
// aggregator merges shard records into the global history — assigning the
// dense global sequence numbers and delivering sink batches — on read, on
// the configured flush interval, or when a producer's backlog reaches half
// its shard capacity. The merge is a k-way merge by timestamp with ties
// broken by shard registration order, so a single-threaded beat schedule
// aggregates into exactly the history a fully serialized store would have
// produced.
//
// A shard's slots are plain memory: the merge, run under mu, is its only
// reader, and the soft-limit flush keeps the producer from overwriting a
// slot the merge may still read. A global beat therefore costs one atomic
// store while timestamps repeat (as they do on a CoarseClock) and two when
// it opens a new time run — on the default wall clock, nearly every beat.

// gshard is one producer's shard of the global heartbeat history. Exactly
// one goroutine (the owning Thread's) pushes into it; the aggregator, under
// mu, is its only consumer.
type gshard struct {
	ring     *ring.SPSC
	agg      *aggregator
	producer int32
	// soft is the backlog level (in records or in time-index entries) at
	// which the producer itself triggers a flush: half the shard
	// capacity, so unconsumed records are never overwritten and no beat
	// is ever lost. The merge releases the ring position only once the
	// merged records are visible in the store, so hasPending stays true
	// for the whole merge.
	soft uint64
	_    [64]byte // off the cache line the producer loads on every beat
	// countConsumed is the consumed position published EARLY, before the
	// store appends land. Count's lock-free estimate subtracts it so a
	// record mid-merge is counted zero times, never twice (an overcount
	// would latch into Count's monotonic clamp permanently). The merge
	// writes it once per run, so padding on both sides keeps it off the
	// lines this and a neighbouring shard's producer read.
	countConsumed atomic.Uint64
	_             [64]byte
}

// beat is the global-beat hot path: a shard push plus an amortized backlog
// check. It allocates nothing and takes no lock.
//
//hbvet:hotpath
func (g *gshard) beat(timeNanos, tag int64) {
	if g.ring.Push(timeNanos, tag) >= g.soft {
		g.agg.flush() //hbvet:allow hotpath -- amortized backlog spill: runs once per soft-limit crossing, not per beat
	}
}

// mergeHead is one shard's position in the k-way merge.
type mergeHead struct {
	sh    *gshard
	limit uint64 // shard total snapshot; records beyond it merge next time
	t     int64  // timestamp of the shard's next pending record
}

// aggregator owns the merged global history and the sink once per-thread
// shards exist. All merged-store appends happen under mu; the store itself
// additionally tolerates the lock-free direct-beat path that runs before the
// first Thread is registered.
type aggregator struct {
	mu      sync.Mutex
	st      store
	sink    Sink
	sinkErr *atomic.Pointer[error]
	subs    *subscribers
	nshards atomic.Int32
	shards  []*gshard // guarded by mu; registration order
	// shardsPtr republishes the shards slice copy-on-write so lock-free
	// fast paths (direct beats, Count) can scan backlog atomics without
	// taking mu.
	shardsPtr atomic.Pointer[[]*gshard]
	heads     []mergeHead // merge scratch, reused across flushes
	batch     []Record    // sink-batch scratch, reused across flushes
}

// register creates a shard for a new producer.
func (a *aggregator) register(producer int32, capacity int) *gshard {
	g := &gshard{ring: ring.NewSPSC(capacity), agg: a, producer: producer, soft: uint64(capacity) / 2}
	if g.soft == 0 {
		g.soft = 1
	}
	a.mu.Lock()
	a.shards = append(a.shards, g)
	snap := make([]*gshard, len(a.shards))
	copy(snap, a.shards)
	a.shardsPtr.Store(&snap)
	a.nshards.Store(int32(len(a.shards)))
	a.mu.Unlock()
	return g
}

// active reports whether any shards exist (and the aggregated path is in
// effect for global state).
func (a *aggregator) active() bool { return a.nshards.Load() > 0 }

// snapshot returns the lock-free view of the registered shards.
func (a *aggregator) snapshot() []*gshard {
	if p := a.shardsPtr.Load(); p != nil {
		return *p
	}
	return nil
}

// hasPending reports, lock-free, whether any shard has unmerged records.
// It reads the shards' released positions, which lag until merged records
// are visible in the store, so this answers true for the whole
// duration of a merge — callers fall to the locked path and wait, keeping
// direct beats sequenced after every earlier shard record. The scan is
// O(registered threads) of atomic loads; an aggregate counter would move
// that coordination onto the sharded beat hot path, which is the wrong
// trade.
func (a *aggregator) hasPending() bool {
	for _, sh := range a.snapshot() {
		if sh.ring.Backlog() != 0 {
			return true
		}
	}
	return false
}

// pendingEstimate sums shard backlogs lock-free against the early-published
// countConsumed. Reading it before the ring total keeps each term
// non-negative; the sum can transiently undercount records mid-merge, which
// Count compensates for with a monotonic clamp.
func (a *aggregator) pendingEstimate() uint64 {
	var n uint64
	for _, sh := range a.snapshot() {
		c := sh.countConsumed.Load()
		if t := sh.ring.Total(); t > c {
			n += t - c
		}
	}
	return n
}

// flush merges all pending shard records now.
func (a *aggregator) flush() {
	a.mu.Lock()
	a.mergeLocked()
	a.mu.Unlock()
}

// direct appends a record beaten on the global handle itself (producer 0).
// Pending shard records are merged first so global sequence numbers remain
// ordered, and the record reaches the sink before direct returns (the
// synchronous contract of Heartbeat.Beat).
func (a *aggregator) direct(timeNanos, tag int64) {
	a.mu.Lock()
	a.mergeLocked()
	seq := a.st.append(timeNanos, tag, 0)
	if a.sink != nil {
		a.deliver(Record{Seq: seq, Time: time.Unix(0, timeNanos), Tag: tag, Producer: 0})
	}
	a.mu.Unlock()
	a.subs.wake()
}

// pendingLocked counts shard records not yet merged.
func (a *aggregator) pendingLocked() uint64 {
	var n uint64
	for _, sh := range a.shards {
		n += sh.ring.Total() - sh.ring.Consumed()
	}
	return n
}

// minHead returns the index of the head with the smallest timestamp;
// ties resolve to the earliest-registered shard, keeping the merge
// deterministic.
func minHead(heads []mergeHead) int {
	mi := 0
	for i := 1; i < len(heads); i++ {
		if heads[i].t < heads[mi].t {
			mi = i
		}
	}
	return mi
}

// mergeLocked drains every shard up to its current total, materializing
// records into the merged store in timestamp order. When no sink is attached
// and the pending backlog exceeds the history capacity, the surplus oldest
// records — which a bounded history would discard on arrival anyway — are
// consumed run-by-run without materialization, with their sequence numbers
// accounted in bulk.
func (a *aggregator) mergeLocked() {
	heads := a.heads[:0]
	var pending uint64
	for _, sh := range a.shards {
		limit := sh.ring.Total()
		if limit > sh.ring.Consumed() {
			pending += limit - sh.ring.Consumed()
			heads = append(heads, mergeHead{sh: sh, limit: limit, t: sh.ring.PeekTime()})
		}
	}
	if len(heads) == 0 {
		a.heads = heads
		return
	}
	if capn := uint64(a.st.capacity()); a.sink == nil && pending > capn {
		toSkip := pending - capn
		for toSkip > 0 {
			mi := minHead(heads)
			h := &heads[mi]
			n := h.sh.ring.RunLen(h.limit)
			if n > toSkip {
				n = toSkip
			}
			h.sh.ring.Skip(n)
			h.sh.countConsumed.Store(h.sh.ring.Consumed())
			toSkip -= n
			if h.sh.ring.Consumed() >= h.limit {
				heads = append(heads[:mi], heads[mi+1:]...)
			} else {
				h.t = h.sh.ring.PeekTime()
			}
		}
		// The skip advances the store's sequence counter past every
		// retained record before the replacement tail is appended, so
		// a concurrent lock-free reader (a History whose TryLock lost
		// the race) can transiently observe a short or empty history
		// until the appends below land — the documented best-effort
		// degraded read, bounded by the merge duration.
		a.st.skip(pending - capn)
	}
	for len(heads) > 0 {
		mi := minHead(heads)
		h := &heads[mi]
		// Consume the head's whole same-timestamp run at once: every
		// record in it shares the minimal timestamp, so record-by-record
		// selection would keep picking this shard anyway (ties break to
		// the earliest-registered shard). This keeps the merge O(runs)
		// rather than O(records) in shard-head scans.
		run := h.sh.ring.RunLen(h.limit)
		h.sh.countConsumed.Store(h.sh.ring.Consumed() + run)
		for i := uint64(0); i < run; i++ {
			e, _ := h.sh.ring.Next(h.limit)
			seq := a.st.append(e.Time, e.Tag, h.sh.producer)
			if a.sink != nil {
				a.batch = append(a.batch, Record{Seq: seq, Time: time.Unix(0, e.Time), Tag: e.Tag, Producer: h.sh.producer})
			}
		}
		if h.sh.ring.Consumed() >= h.limit {
			heads = append(heads[:mi], heads[mi+1:]...)
		} else {
			h.t = h.sh.ring.PeekTime()
		}
	}
	a.heads = heads[:0]
	for _, sh := range a.shards {
		sh.ring.Release()
		sh.countConsumed.Store(sh.ring.Consumed())
	}
	if len(a.batch) > 0 {
		a.deliverBatch(a.batch)
		a.batch = a.batch[:0]
	}
	// Records merged above are visible in the store (and past the sink),
	// so blocked subscribers can consume them now. The send is
	// non-blocking, so waking under mu is safe; a subscriber that runs
	// before mu is released simply reads the store lock-free.
	a.subs.wake()
}

func (a *aggregator) deliver(r Record) {
	if err := a.sink.WriteRecord(r); err != nil {
		a.sinkErr.Store(&err)
	}
}

func (a *aggregator) deliverBatch(recs []Record) {
	if bs, ok := a.sink.(BatchSink); ok {
		if err := bs.WriteRecords(recs); err != nil {
			a.sinkErr.Store(&err)
		}
		return
	}
	for _, r := range recs {
		a.deliver(r)
	}
}
