package ring

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

// drain consumes every record up to the current total, record by record,
// and releases the position.
func drain(r *SPSC) []Entry {
	limit := r.Total()
	var out []Entry
	for {
		e, ok := r.Next(limit)
		if !ok {
			break
		}
		out = append(out, e)
	}
	r.Release()
	return out
}

func TestSPSCCapacityRoundsUp(t *testing.T) {
	for _, c := range []struct{ in, want int }{{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {64, 64}, {1000, 1024}} {
		if got := NewSPSC(c.in).Cap(); got != c.want {
			t.Errorf("NewSPSC(%d).Cap() = %d, want %d", c.in, got, c.want)
		}
	}
}

// The consumer must consume every record exactly once, in order, with
// correct times and tags, across many wraparounds, while the producer stays
// within the backlog budget the heartbeat aggregator enforces.
func TestSPSCConsumesAll(t *testing.T) {
	const capacity = 128
	r := NewSPSC(capacity)
	var pushed []Entry
	now := int64(5)
	next := 0
	for round := 0; round < 200; round++ {
		n := round%(capacity/2) + 1
		for i := 0; i < n; i++ {
			if i%4 == 0 {
				now += 3
			}
			seq := uint64(len(pushed) + 1)
			tag := int64(seq % 5)
			pushed = append(pushed, Entry{Seq: seq, Time: now, Tag: tag})
			if b := r.Push(now, tag); b > capacity/2 {
				t.Fatalf("backlog %d after push %d exceeds the budget", b, seq)
			}
		}
		for _, e := range drain(r) {
			if e != pushed[next] {
				t.Fatalf("consumed %+v, want %+v", e, pushed[next])
			}
			next++
		}
		if r.Consumed() != r.Total() || next != len(pushed) {
			t.Fatalf("consumed %d of %d", r.Consumed(), r.Total())
		}
		if b := r.Backlog(); b != 0 {
			t.Fatalf("backlog %d after a full drain", b)
		}
	}
}

// RunLen stops at run boundaries and at the limit, and Skip keeps PeekTime,
// RunLen and Next consistent: the merge's discard path.
func TestSPSCRunsAndSkip(t *testing.T) {
	r := NewSPSC(64)
	for i := 0; i < 10; i++ {
		r.Push(100, int64(i))
	}
	for i := 0; i < 5; i++ {
		r.Push(200, 0)
	}
	limit := r.Total()
	if tm := r.PeekTime(); tm != 100 {
		t.Fatalf("PeekTime = %d, want 100", tm)
	}
	if n := r.RunLen(limit); n != 10 {
		t.Fatalf("RunLen = %d, want 10", n)
	}
	if n := r.RunLen(6); n != 6 {
		t.Fatalf("RunLen(6) = %d, want the limit to cut the run at 6", n)
	}
	r.Skip(7)
	if n := r.RunLen(limit); n != 3 {
		t.Fatalf("RunLen after skip = %d, want 3", n)
	}
	e, ok := r.Next(limit)
	if !ok || e.Seq != 8 || e.Time != 100 || e.Tag != 7 {
		t.Fatalf("Next after skip = %+v, %v", e, ok)
	}
	r.Skip(2)
	if tm := r.PeekTime(); tm != 200 {
		t.Fatalf("PeekTime in second run = %d, want 200", tm)
	}
	if n := r.RunLen(limit); n != 5 {
		t.Fatalf("second RunLen = %d, want 5", n)
	}
	if n := r.RunLen(12); n != 2 {
		t.Fatalf("second RunLen(12) = %d, want 2", n)
	}
	for want := uint64(11); want <= 15; want++ {
		e, ok := r.Next(limit)
		if !ok || e.Seq != want || e.Time != 200 {
			t.Fatalf("tail Next = %+v, %v (want seq %d)", e, ok, want)
		}
	}
	if _, ok := r.Next(limit); ok {
		t.Fatal("Next past limit ok")
	}
}

// Property: driven with arbitrary time/tag streams on a small ring, mixing
// Skip and Next at arbitrary drain points, the consumer reproduces exactly
// the pushed (time, tag) sequence; RunLen always ends where the timestamp
// changes or at the limit; PeekTime always names the next record's time.
func TestSPSCMatchesPushedProperty(t *testing.T) {
	f := func(capRaw uint8, seed int64, ops []uint16) bool {
		capacity := int(capRaw)%9 + 2
		r := NewSPSC(capacity)
		soft := uint64(r.Cap() / 2)
		rng := rand.New(rand.NewSource(seed))
		var pushed []Entry
		now := int64(1)
		consume := func() bool {
			limit := r.Total()
			for r.Consumed() < limit {
				i := r.Consumed() // index of the next record in pushed
				if r.PeekTime() != pushed[i].Time {
					return false
				}
				end := i + 1
				for end < limit && pushed[end].Time == pushed[i].Time {
					end++
				}
				if r.RunLen(limit) != end-i {
					return false
				}
				if rng.Intn(2) == 0 {
					r.Skip(uint64(rng.Intn(int(end-i))) + 1)
					continue
				}
				if e, ok := r.Next(limit); !ok || e != pushed[i] {
					return false
				}
			}
			r.Release()
			return r.Backlog() == 0
		}
		for _, op := range ops {
			if op%3 == 0 { // a fresh timestamp on every third op
				now += int64(op%97) + 1
			}
			tag := int64(0)
			if op%2 == 0 {
				tag = int64(op) - 40
			}
			pushed = append(pushed, Entry{Seq: uint64(len(pushed) + 1), Time: now, Tag: tag})
			if r.Push(now, tag) >= soft || op%7 == 0 {
				if !consume() {
					return false
				}
			}
		}
		return consume() && r.Consumed() == uint64(len(pushed))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Backlog counts whichever of records and time-index entries is further
// ahead of the last Release, and only Release moves the consumer side of it.
func TestSPSCBacklog(t *testing.T) {
	r := NewSPSC(16)
	if b := r.Push(10, 0); b != 1 {
		t.Fatalf("first push backlog %d, want 1", b)
	}
	r.Push(10, 3)
	if b := r.Push(10, 0); b != 3 {
		t.Fatalf("backlog %d, want 3 records", b)
	}
	drain(r)
	// Same timestamp: a record but no new entry.
	if b := r.Push(10, 0); b != 1 {
		t.Fatalf("backlog after same-time push %d, want 1", b)
	}
	// Consumed but not released: the producer still sees the backlog.
	limit := r.Total()
	r.Next(limit)
	if b := r.Backlog(); b != 1 {
		t.Fatalf("unreleased backlog %d, want 1", b)
	}
	r.Release()
	if b := r.Backlog(); b != 0 {
		t.Fatalf("released backlog %d, want 0", b)
	}
	// Records each opening a run: entries and records advance together.
	for i := int64(1); i <= 4; i++ {
		if b := r.Push(10+i, 0); b != uint64(i) {
			t.Fatalf("run push %d: backlog %d", i, b)
		}
	}
}

// A producer racing a mutex-serialized consumer, draining itself when its
// backlog reaches half the ring (the heartbeat aggregator's discipline),
// must hand over every record intact: under -race this also checks that
// the plain slots are ordered by the published counters alone.
func TestSPSCConcurrentProducerConsumer(t *testing.T) {
	for _, capacity := range []int{2, 4, 64} {
		const pushes = 20000
		r := NewSPSC(capacity)
		soft := uint64(capacity / 2)
		var (
			mu   sync.Mutex
			got  []Entry
			stop = make(chan struct{})
			wg   sync.WaitGroup
		)
		consume := func() {
			mu.Lock()
			got = append(got, drain(r)...)
			mu.Unlock()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				consume()
				runtime.Gosched()
			}
		}()
		now := int64(0)
		for i := 1; i <= pushes; i++ {
			if i%5 != 0 { // mostly fresh timestamps, some repeats
				now++
			}
			tag := int64(0)
			if i%3 != 0 {
				tag = int64(i)
			}
			if r.Push(now, tag) >= soft {
				consume()
			}
		}
		close(stop)
		wg.Wait()
		consume()
		if len(got) != pushes {
			t.Fatalf("cap %d: consumed %d records, want %d", capacity, len(got), pushes)
		}
		now = 0
		for i, e := range got {
			seq := i + 1
			if seq%5 != 0 {
				now++
			}
			want := Entry{Seq: uint64(seq), Time: now}
			if seq%3 != 0 {
				want.Tag = int64(seq)
			}
			if e != want {
				t.Fatalf("cap %d: record %d = %+v, want %+v", capacity, i, e, want)
			}
		}
	}
}
