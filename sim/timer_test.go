package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestAfterFiresOnAdvanceInDeadlineOrder(t *testing.T) {
	c := NewClock(time.Time{})
	a := c.After(3 * time.Second)
	b := c.After(1 * time.Second)
	if got := c.PendingTimers(); got != 2 {
		t.Fatalf("PendingTimers = %d, want 2", got)
	}

	// Nothing fires before its deadline.
	c.Advance(999 * time.Millisecond)
	select {
	case <-a:
		t.Fatal("3s timer fired at 0.999s")
	case <-b:
		t.Fatal("1s timer fired at 0.999s")
	default:
	}

	// One sweep past both deadlines fires both, each stamped with its own
	// deadline, not the sweep target.
	c.Advance(10 * time.Second)
	tb := <-b
	ta := <-a
	if want := Epoch.Add(1 * time.Second); !tb.Equal(want) {
		t.Fatalf("1s timer stamped %v, want %v", tb, want)
	}
	if want := Epoch.Add(3 * time.Second); !ta.Equal(want) {
		t.Fatalf("3s timer stamped %v, want %v", ta, want)
	}
	if got := c.PendingTimers(); got != 0 {
		t.Fatalf("PendingTimers = %d after firing, want 0", got)
	}
}

func TestAfterNonPositiveFiresImmediately(t *testing.T) {
	c := NewClock(time.Time{})
	select {
	case <-c.After(0):
	default:
		t.Fatal("After(0) did not fire immediately")
	}
}

func TestAdvanceToNext(t *testing.T) {
	c := NewClock(time.Time{})
	if c.AdvanceToNext() {
		t.Fatal("AdvanceToNext with no timers reported true")
	}
	ch := c.After(5 * time.Second)
	later := c.After(7 * time.Second)
	if !c.AdvanceToNext() {
		t.Fatal("AdvanceToNext with a timer reported false")
	}
	if want := Epoch.Add(5 * time.Second); !c.Now().Equal(want) {
		t.Fatalf("Now = %v, want %v", c.Now(), want)
	}
	<-ch
	select {
	case <-later:
		t.Fatal("later timer fired early")
	default:
	}
	if dl, ok := c.NextDeadline(); !ok || !dl.Equal(Epoch.Add(7*time.Second)) {
		t.Fatalf("NextDeadline = %v, %v", dl, ok)
	}
}

// AutoAdvance must drive a ticker-style loop — wait, work, re-arm —
// through many virtual seconds in a few real milliseconds.
func TestAutoAdvanceDrivesRearmedWaits(t *testing.T) {
	c := NewClock(time.Time{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var ticks atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			<-c.After(time.Second)
			ticks.Add(1)
		}
	}()
	go c.AutoAdvance(ctx, 0)

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("loop stalled after %d ticks", ticks.Load())
	}
	if got := ticks.Load(); got != 1000 {
		t.Fatalf("ticks = %d, want 1000", got)
	}
	if elapsed := c.Elapsed(Epoch); elapsed < 1000*time.Second {
		t.Fatalf("virtual elapsed %v, want >= 1000s", elapsed)
	}
}

// A goroutine woken by the clock that computes before it blocks again
// must still read the clock its timer left, however many Ps run it: the
// driver may not leap to the next pending deadline (a sibling loop keeps
// one every 10ms) until the computation is over.
func TestAutoAdvanceWaitsForWokenGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	c := NewClock(time.Time{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-c.After(10 * time.Millisecond):
			}
		}
	}()
	errs := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			woke := <-c.After(100 * time.Millisecond)
			for start := time.Now(); time.Since(start) < 200*time.Microsecond; {
			}
			if now := c.Now(); !now.Equal(woke) {
				errs <- fmt.Errorf("wake %d at %v: clock read %v after the work", i, woke.Sub(Epoch), now.Sub(Epoch))
				return
			}
		}
		errs <- nil
	}()
	go c.AutoAdvance(ctx, 0)

	select {
	case err := <-errs:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("loop stalled")
	}
}

func TestAutoAdvanceLimitStops(t *testing.T) {
	c := NewClock(time.Time{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { // a loop that would re-arm forever
		for {
			<-c.After(time.Second)
		}
	}()
	done := make(chan struct{})
	go func() { defer close(done); c.AutoAdvance(ctx, 30*time.Second) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("AutoAdvance ignored its limit")
	}
}
