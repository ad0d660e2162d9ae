package heartbeat_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/heartbeat"
	"repro/observer"
)

// mixedClock alternates phases in which every reading repeats one
// timestamp (as a CoarseClock does, so shard beats extend one time run)
// with phases in which every reading is fresh (as the wall clock does, so
// every shard beat opens a new time run). Readings never decrease.
type mixedClock struct{ n atomic.Int64 }

const mixedPhase = 1024

func (c *mixedClock) NowNanos() int64 {
	i := c.n.Add(1)
	if p := i / mixedPhase; p%2 == 0 {
		return p * mixedPhase
	}
	return i
}

func (c *mixedClock) Now() time.Time { return time.Unix(0, c.NowNanos()) }

// stressTag is the tag of a producer's i-th beat (1-based): every third
// beat is untagged, the rest carry i, so the delivered per-producer tag
// sequence pins the exact beat order.
func stressTag(i int) int64 {
	if i%3 == 0 {
		return 0
	}
	return int64(i)
}

// Thread producers beat into shards of capacities down to the minimum
// while Flush, History, Count and a HeartbeatStream subscriber race them.
// The sink and the subscriber must each see every record once, with dense
// global sequence numbers and each producer's beats in exact order, and no
// producer may ever push with its shard backlog — records or time-index
// entries not yet released by the aggregator — above the soft limit that
// keeps it from overwriting slots the merge may still read.
func TestShardCapacitySweepRace(t *testing.T) {
	for _, shardCap := range []int{2, 3, 4, 64} {
		t.Run(fmt.Sprintf("shard-%d", shardCap), func(t *testing.T) {
			const (
				workers = 4
				beats   = 4000
				total   = workers * beats
			)
			sink := &collectSink{}
			hb, err := heartbeat.New(10,
				heartbeat.WithCapacity(1<<15), // > total: the subscriber never laps
				heartbeat.WithShardCapacity(shardCap),
				heartbeat.WithClock(&mixedClock{}),
				heartbeat.WithSink(sink))
			if err != nil {
				t.Fatal(err)
			}
			stream := observer.HeartbeatStream(hb)
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()

			var streamed []heartbeat.Record
			subDone := make(chan error, 1)
			go func() {
				for len(streamed) < total {
					b, err := stream.Next(ctx)
					if err != nil {
						subDone <- err
						return
					}
					if b.Missed != 0 {
						subDone <- fmt.Errorf("subscriber missed %d records", b.Missed)
						return
					}
					streamed = append(streamed, b.Records...)
				}
				subDone <- nil
			}()

			stop := make(chan struct{})
			var readers sync.WaitGroup
			for _, read := range []func() error{
				func() error { hb.Flush(); return nil },
				func() error {
					recs := hb.History(64)
					for j := 1; j < len(recs); j++ {
						if recs[j].Seq != recs[j-1].Seq+1 {
							return fmt.Errorf("History not dense: %d then %d", recs[j-1].Seq, recs[j].Seq)
						}
					}
					return nil
				},
				func() func() error {
					var last uint64
					return func() error {
						c := hb.Count()
						if c < last || c > total {
							return fmt.Errorf("Count %d after %d (total %d)", c, last, total)
						}
						last = c
						return nil
					}
				}(),
			} {
				readers.Add(1)
				go func(read func() error) {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if err := read(); err != nil {
							t.Error(err)
							return
						}
						runtime.Gosched()
					}
				}(read)
			}

			var producers sync.WaitGroup
			for w := 0; w < workers; w++ {
				tr := hb.Thread("sweep")
				producers.Add(1)
				go func() {
					defer producers.Done()
					for i := 1; i <= beats; i++ {
						if tag := stressTag(i); tag == 0 {
							tr.GlobalBeat()
						} else {
							tr.GlobalBeatTag(tag)
						}
						// A beat leaves the backlog below soft (it
						// flushes on reaching it), so the next push
						// lands at most at soft.
						if backlog, soft := heartbeat.ShardBacklog(tr); backlog >= soft {
							t.Errorf("producer %d: backlog %d after beat %d, soft limit %d",
								tr.ID(), backlog, i, soft)
							return
						}
					}
				}()
			}
			producers.Wait()
			close(stop)
			readers.Wait()
			hb.Flush()
			if err := <-subDone; err != nil {
				t.Fatal(err)
			}
			if got := hb.Count(); got != total {
				t.Fatalf("Count = %d, want %d", got, total)
			}
			sink.mu.Lock()
			defer sink.mu.Unlock()
			for name, recs := range map[string][]heartbeat.Record{"sink": sink.records, "subscriber": streamed} {
				if len(recs) != total {
					t.Fatalf("%s received %d records, want %d", name, len(recs), total)
				}
				next := map[int32]int{}
				for i, r := range recs {
					if r.Seq != uint64(i+1) {
						t.Fatalf("%s: record %d has seq %d: global sequence not dense", name, i, r.Seq)
					}
					next[r.Producer]++
					if want := stressTag(next[r.Producer]); r.Tag != want {
						t.Fatalf("%s: producer %d beat %d has tag %d, want %d",
							name, r.Producer, next[r.Producer], r.Tag, want)
					}
				}
				for p, n := range next {
					if n != beats {
						t.Fatalf("%s: producer %d delivered %d records, want %d", name, p, n, beats)
					}
				}
			}
		})
	}
}
