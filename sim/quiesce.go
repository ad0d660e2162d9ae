package sim

import (
	"bytes"
	"context"
	"runtime"
	"time"
)

// This file is AutoAdvance's quiescence check: the clock may leap to the
// next deadline only once everything the previous step woke has finished
// reacting to it. Yielding alone does not establish that on a host with
// more than one P — runtime.Gosched returns at once while the woken
// goroutines are still running on another P, and virtual time then races
// past the deadlines they are about to register. So after yielding, the
// driver reads the state of every goroutine in the process (one
// runtime.Stack traceback) and advances only when none of them is running
// or runnable: the program is blocked, and only the clock can unblock it.
//
// The check covers the whole process, not one simulation: simulations
// that share a process hold each other's clocks back while they run, which
// costs time but never a missed wake-up. The traceback is the expensive
// part of a step (its cost grows with the number of goroutines alive), so
// run simulations one at a time.

// busyStates are the goroutine states (as a traceback prints them) that
// mean "still executing": anything else is a wait reason — a channel,
// select, lock, sleep or I/O wait — that only an event can end.
var busyStates = [][]byte{
	[]byte("running"),
	[]byte("runnable"),
	[]byte("syscall"),
	[]byte("preempted"),
	[]byte("copystack"),
}

// idleFrames mark goroutines that never count as busy whatever their
// state: clock drivers (their own settling is not a simulation's work, and
// two drivers waiting on each other would never advance), and the
// os/signal receiver, which parks in the syscall state for good.
var idleFrames = [][]byte{
	[]byte("sim.(*Clock).AutoAdvance("),
	[]byte("os/signal.signal_recv("),
}

// settleRounds is how many scheduler yields a driver grants the goroutines
// woken by one step before it first checks whether they have blocked
// again: enough for a woken loop to consume its event and re-arm its next
// wait in the common case, so that one traceback usually settles a step.
const settleRounds = 256

// maxSettleRounds caps the yields between two checks while the program
// stays busy; the gap doubles from settleRounds so that a long computation
// (a pump stepping many producers) costs few tracebacks.
const maxSettleRounds = 4096

// maxSettle bounds, in real time, how long one step waits for the program
// to go quiet. A goroutine that spins without blocking (a poll loop that
// yields but never waits) would otherwise stall the clock for good; past
// the bound the step advances anyway, as an unchecked yield would.
const maxSettle = time.Second

// quiescence holds a driver's reusable traceback buffer.
type quiescence struct {
	buf []byte
}

// settle yields until every goroutine but the caller has blocked, ctx is
// cancelled, or maxSettle has passed.
func (q *quiescence) settle(ctx context.Context) {
	var start time.Time
	for rounds := settleRounds; ; rounds = min(2*rounds, maxSettleRounds) {
		for i := 0; i < rounds; i++ {
			if ctx.Err() != nil {
				return
			}
			runtime.Gosched()
		}
		if q.othersIdle() {
			return
		}
		if start.IsZero() {
			start = time.Now()
		} else if time.Since(start) > maxSettle {
			return
		}
	}
}

// othersIdle reports whether every goroutine other than the caller (and
// the idleFrames exemptions) is blocked.
func (q *quiescence) othersIdle() bool {
	if q.buf == nil {
		q.buf = make([]byte, 64<<10)
	}
	n := runtime.Stack(q.buf, true)
	for n == len(q.buf) { // truncated: grow and retake
		q.buf = make([]byte, 2*len(q.buf))
		n = runtime.Stack(q.buf, true)
	}
	// Blocks are separated by blank lines; the caller's own comes first.
	blocks := bytes.Split(q.buf[:n], []byte("\n\n"))
	for _, g := range blocks[1:] {
		if goroutineBusy(g) {
			return false
		}
	}
	return true
}

// goroutineBusy reads one traceback block: "goroutine N [state, ...]:"
// followed by its frames.
func goroutineBusy(g []byte) bool {
	open := bytes.IndexByte(g, '[')
	if open < 0 {
		return false
	}
	state := g[open+1:]
	if end := bytes.IndexAny(state, ",]"); end >= 0 {
		state = state[:end]
	}
	busy := false
	for _, s := range busyStates {
		if bytes.Equal(state, s) {
			busy = true
			break
		}
	}
	if !busy {
		return false
	}
	for _, f := range idleFrames {
		if bytes.Contains(g, f) {
			return false
		}
	}
	return true
}
