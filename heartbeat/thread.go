package heartbeat

import (
	"time"

	"repro/internal/ring"
)

// Thread is a per-thread heartbeat handle — the paper's "local" heartbeats.
// Threads working on independent objects beat on their own handles so
// observers can reason about them separately; threads cooperating on one
// object report shared progress through GlobalBeat.
//
// A Thread owns two single-producer rings: a private local history
// (Beat/BeatTag; a lock-free ring.SP that any number of observers read
// concurrently) and a global shard (GlobalBeat/GlobalBeatTag; a ring.SPSC
// whose only reader is the aggregator merging it into the application
// history). Both beat paths are mutex-free and allocation-free. A global
// beat is one atomic store while timestamps repeat (as on a CoarseClock)
// and two when it opens a new time run; a local beat is one atomic store
// while timestamps repeat and the tag is 0. That speed rests on a
// single-producer contract: all beat calls on one Thread must come from
// one goroutine (register one handle per worker — Thread handles are
// cheap). Concurrent beats on a shared handle are a data race: beats can
// be lost and `go test -race` will flag the caller. This is stricter than
// the seed's mutex-guarded Thread, which tolerated shared handles;
// heartbeat/compat serializes its local beats for C-parity callers that
// relied on that. All read methods remain safe for any number of
// concurrent observers.
type Thread struct {
	h    *Heartbeat
	id   int32
	name string
	// coarse short-circuits the clock indirection when the application
	// runs on a CoarseClock — the beat hot path becomes a direct atomic
	// load instead of an indirect call.
	coarse    *CoarseClock
	nowNanos  func() int64
	lastNanos int64 // producer-private: clamps beat times non-decreasing
	local     *ring.SP
	g         *gshard
}

func newThread(h *Heartbeat, id int32, name string, localCap, shardCap int) *Thread {
	t := &Thread{
		h:        h,
		id:       id,
		name:     name,
		nowNanos: h.nowNanos,
		local:    ring.NewSP(localCap),
		g:        h.agg.register(id, shardCap),
	}
	if cc, ok := h.clock.(*CoarseClock); ok {
		t.coarse = cc
	}
	return t
}

// now is the hot-path timestamp read, clamped so one thread's beat times
// never run backwards across a wall-clock step (negative spans would make
// windowed rates unreportable). The clamp is a plain field: only the
// owning goroutine beats, per the single-producer contract.
func (t *Thread) now() int64 {
	var n int64
	if t.coarse != nil {
		n = t.coarse.nanos.Load()
	} else {
		n = t.nowNanos() //hbvet:allow hotpath -- injected clock read; the contract-bearing config (CoarseClock) takes the atomic-load branch above
	}
	if n < t.lastNanos {
		return t.lastNanos
	}
	t.lastNanos = n
	return n
}

// ID returns the registration identifier stamped into this thread's records
// (and into global records emitted via GlobalBeat).
func (t *Thread) ID() int32 { return t.id }

// Name returns the label supplied at registration.
func (t *Thread) Name() string { return t.name }

// Beat registers a local heartbeat with tag 0 (HB_heartbeat, local=true).
//
//hbvet:hotpath
func (t *Thread) Beat() { t.local.Push(t.now(), 0) }

// BeatTag registers a local heartbeat carrying a caller-defined tag.
//
//hbvet:hotpath
func (t *Thread) BeatTag(tag int64) { t.local.Push(t.now(), tag) }

// GlobalBeat registers a heartbeat on the application's global history,
// attributed to this thread. The write lands in this thread's lock-free
// shard; the aggregator assigns its global sequence number when the shard
// is merged (on read, on the flush interval, or on backlog pressure).
//
//hbvet:hotpath
func (t *Thread) GlobalBeat() { t.g.beat(t.now(), 0) }

// GlobalBeatTag is GlobalBeat with a tag.
//
//hbvet:hotpath
func (t *Thread) GlobalBeatTag(tag int64) { t.g.beat(t.now(), tag) }

// Count returns the number of local heartbeats ever registered.
func (t *Thread) Count() uint64 { return t.local.Total() }

// Rate returns the local heart rate over the last window beats; window == 0
// uses the application's default window. Windows beyond the retained
// history are clipped.
func (t *Thread) Rate(window int) (perSec float64, ok bool) {
	r, ok := t.RateDetail(window)
	return r.PerSec, ok
}

// RateDetail is Rate with the full measurement.
func (t *Thread) RateDetail(window int) (Rate, bool) {
	if window <= 0 {
		window = t.h.window
	}
	return rateOf(t.History(window))
}

// History returns up to n of the most recent local records, oldest first.
func (t *Thread) History(n int) []Record {
	ents := t.local.Last(n)
	if len(ents) == 0 {
		return nil
	}
	out := make([]Record, len(ents))
	for i, e := range ents {
		out[i] = Record{Seq: e.Seq, Time: time.Unix(0, e.Time), Tag: e.Tag, Producer: t.id}
	}
	return out
}
