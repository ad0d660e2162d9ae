package ring

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSPSequentialSemantics(t *testing.T) {
	r := NewSP(64)
	if r.Cap() != 64 || r.Total() != 0 {
		t.Fatalf("fresh ring: cap %d total %d", r.Cap(), r.Total())
	}
	if r.Last(10) != nil {
		t.Fatal("Last on empty ring not nil")
	}
	if _, ok := r.Read(1); ok {
		t.Fatal("Read(1) ok on empty ring")
	}

	// Three beats at t=100 (one tagged), two at t=200.
	if seq := r.Push(100, 0); seq != 1 {
		t.Fatalf("first push: seq %d", seq)
	}
	if seq := r.Push(100, 7); seq != 2 {
		t.Fatalf("second push: seq %d", seq)
	}
	r.Push(100, 0)
	if seq := r.Push(200, 0); seq != 4 {
		t.Fatalf("new-run push: seq %d", seq)
	}
	r.Push(200, -3)

	if r.Total() != 5 || r.entries.Load() != 2 {
		t.Fatalf("total %d entries %d, want 5 and 2", r.Total(), r.entries.Load())
	}
	want := []Entry{{1, 100, 0}, {2, 100, 7}, {3, 100, 0}, {4, 200, 0}, {5, 200, -3}}
	got := r.Last(100)
	if len(got) != len(want) {
		t.Fatalf("Last = %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Last[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if e, ok := r.Read(2); !ok || e != want[1] {
		t.Fatalf("Read(2) = %+v, %v", e, ok)
	}
	if _, ok := r.Read(6); ok {
		t.Fatal("Read past total ok")
	}
	if last := r.Last(2); len(last) != 2 || last[0].Seq != 4 {
		t.Fatalf("Last(2) = %+v", last)
	}
}

// Property: driven sequentially with arbitrary time/tag streams, SP agrees
// record-for-record with the plain Buffer oracle over the retained window.
func TestSPEquivalenceProperty(t *testing.T) {
	f := func(capRaw uint8, ops []uint16) bool {
		capacity := int(capRaw)%50 + 8
		sp := NewSP(capacity)
		oracle := New[Entry](capacity)
		now := int64(1)
		for i, op := range ops {
			if op%3 == 0 { // repeat the timestamp on every third op
				now += int64(op % 97)
			}
			tag := int64(0)
			if op%2 == 0 {
				tag = int64(op) - 40
			}
			seq := sp.Push(now, tag)
			oracle.Push(Entry{Seq: uint64(i + 1), Time: now, Tag: tag})
			if seq != uint64(i+1) {
				return false
			}
		}
		if sp.Total() != oracle.Total() {
			return false
		}
		for _, n := range []int{0, 1, capacity / 2, capacity, capacity + 10} {
			a, b := sp.Last(n), oracle.Last(n)
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Readers racing a wrapping producer must never observe a torn record: the
// producer stamps time = 2*seqIndex+7 and tag = seqIndex so any mismatched
// pair is detectable.
func TestSPNoTornReadsUnderWrap(t *testing.T) {
	const (
		capacity = 32 // small: force heavy wraparound
		pushes   = 20000
	)
	r := NewSP(capacity)
	var torn atomic.Int64
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, e := range r.Last(capacity) {
					if e.Time != 2*int64(e.Seq)+7 || (e.Tag != 0 && e.Tag != int64(e.Seq)) {
						torn.Add(1)
						return
					}
				}
				if e, ok := r.Read(r.Total()); ok {
					if e.Time != 2*int64(e.Seq)+7 {
						torn.Add(1)
						return
					}
				}
			}
		}()
	}
	for i := int64(1); i <= pushes; i++ {
		tag := int64(0)
		if i%3 == 0 {
			tag = i
		}
		r.Push(2*i+7, tag)
	}
	close(stop)
	readers.Wait()
	if torn.Load() != 0 {
		t.Fatalf("observed %d torn records", torn.Load())
	}
	if r.Total() != pushes {
		t.Fatalf("total = %d, want %d", r.Total(), pushes)
	}
	recs := r.Last(capacity)
	if len(recs) != capacity {
		t.Fatalf("retained %d records, want %d", len(recs), capacity)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatalf("records not dense: %d then %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
}

func TestBufferSkip(t *testing.T) {
	b := New[int](4)
	b.Push(1)
	b.Push(2)
	b.Skip(3)
	b.Push(9)
	if b.Total() != 6 {
		t.Fatalf("Total = %d, want 6", b.Total())
	}
	got := b.Snapshot()
	want := []int{0, 0, 0, 9} // skipped positions read back as zeros
	if len(got) != len(want) {
		t.Fatalf("Snapshot = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Snapshot = %v, want %v", got, want)
		}
	}
	b.Skip(100) // skipping far past capacity clears everything retained
	for _, v := range b.Snapshot() {
		if v != 0 {
			t.Fatalf("Snapshot after big skip = %v", b.Snapshot())
		}
	}
}
