package sim

import (
	"container/heap"
	"context"
	"time"
)

// This file gives the simulated clock a timer queue, which is what turns
// it from a readable counter into a schedulable one: goroutines wait on
// After and the clock fires them, in deadline order, as it is advanced.
// Together with heartbeat.WaitClock (which Clock satisfies) this lets the
// whole stack — observer tickers, hbnet backoff, scheduler loops — run
// under virtual time: a blocked loop costs nothing until the clock sweeps
// past its deadline, and a simulated minute takes the real time of its
// events, not a minute.

// simTimer is one registered wait: fire delivers the clock reading once
// the clock passes when.
type simTimer struct {
	when time.Time
	ch   chan time.Time
	seq  uint64 // registration order breaks deadline ties deterministically
}

// timerHeap orders timers by deadline, then registration.
type timerHeap []*simTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x interface{}) { *h = append(*h, x.(*simTimer)) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// After implements heartbeat.WaitClock: the returned channel delivers the
// clock's reading once d has elapsed in simulated time — that is, once an
// Advance (or the AutoAdvance driver) sweeps past now+d. A non-positive d
// fires immediately. Like time.After, the timer cannot be cancelled;
// abandoned channels are garbage-collected once fired.
func (c *Clock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	if d <= 0 {
		ch <- c.now
		c.mu.Unlock()
		return ch
	}
	c.timerSeq++
	heap.Push(&c.timers, &simTimer{when: c.now.Add(d), ch: ch, seq: c.timerSeq})
	if c.armed != nil {
		close(c.armed)
		c.armed = nil
	}
	c.mu.Unlock()
	return ch
}

// fireDueLocked pops and fires every timer with a deadline at or before
// target, stepping now to each deadline in order so a timer never observes
// a clock that has not yet reached it. Callers hold c.mu.
func (c *Clock) fireDueLocked(target time.Time) {
	for len(c.timers) > 0 && !c.timers[0].when.After(target) {
		t := heap.Pop(&c.timers).(*simTimer)
		if c.now.Before(t.when) {
			c.now = t.when
		}
		t.ch <- c.now // buffered: never blocks, receiver may be long gone
	}
}

// NextDeadline returns the earliest pending timer deadline, if any.
func (c *Clock) NextDeadline() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.timers) == 0 {
		return time.Time{}, false
	}
	return c.timers[0].when, true
}

// PendingTimers returns how many timers are waiting on the clock.
func (c *Clock) PendingTimers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// AdvanceToNext advances the clock exactly to the earliest pending timer
// deadline, firing every timer registered for it. It reports whether a
// timer was pending; a false return leaves the clock untouched.
func (c *Clock) AdvanceToNext() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.timers) == 0 {
		return false
	}
	c.fireDueLocked(c.timers[0].when)
	return true
}

// awaitTimer blocks until at least one timer is pending or ctx is done;
// false means cancelled.
func (c *Clock) awaitTimer(ctx context.Context) bool {
	for {
		c.mu.Lock()
		if len(c.timers) > 0 {
			c.mu.Unlock()
			return true
		}
		if c.armed == nil {
			c.armed = make(chan struct{})
		}
		armed := c.armed
		c.mu.Unlock()
		select {
		case <-ctx.Done():
			return false
		case <-armed:
		}
	}
}

// AutoAdvance drives the clock until ctx is cancelled: whenever any
// goroutine is waiting on the clock, it waits for the simulation to go
// quiet — every goroutine woken by the previous step blocked again (see
// quiesce.go) — and then advances to the earliest pending deadline. With
// every loop in the system blocked on clock waits, this turns the program
// into an event-driven simulation: virtual time leaps from deadline to
// deadline at whatever rate the host executes the events in between, and
// no wait is registered against a clock that has already moved past the
// event that caused it, however many CPUs run the woken goroutines (short
// of a goroutine computing without a break for longer than maxSettle).
// The goroutines one step wakes still run concurrently, in no fixed order,
// so simulation assertions should stay interleaving-insensitive invariants
// (conservation, exactly-once), not exact timelines.
//
// Run it on its own goroutine; it returns when ctx is cancelled. Limit, if
// positive, stops the driver once the clock passes start+limit — a
// backstop against a runaway simulation.
func (c *Clock) AutoAdvance(ctx context.Context, limit time.Duration) {
	var end time.Time
	if limit > 0 {
		end = c.Now().Add(limit)
	}
	var q quiescence
	for ctx.Err() == nil {
		if !c.awaitTimer(ctx) {
			return
		}
		q.settle(ctx)
		if ctx.Err() != nil {
			return
		}
		if end.IsZero() {
			c.AdvanceToNext()
			continue
		}
		// Honor the backstop exactly: never sweep past end, even when the
		// next deadline lies beyond it (e.g. one far-future backoff wait).
		c.mu.Lock()
		if len(c.timers) == 0 {
			c.mu.Unlock() // a concurrent Advance drained the queue
			continue
		}
		target, done := c.timers[0].when, false
		if target.After(end) {
			target, done = end, true
		}
		c.fireDueLocked(target)
		if c.now.Before(target) {
			c.now = target
		}
		c.mu.Unlock()
		if done {
			return
		}
	}
}
