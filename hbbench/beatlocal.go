package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/heartbeat"
	"repro/internal/simcheck"
	"repro/observer"
)

// beat-local: a closed loop inside one Heartbeat. Each of nproc producer
// goroutines beats GlobalBeatTag on its own Thread in blocks, flushes, and
// waits until the one in-process HeartbeatStream subscriber has delivered
// the block, so the system sets the pace and nothing laps.
const (
	beatBlockMin = 768 // block sizes are drawn per block from the seed
	beatBlockMax = 1280
	beatCapacity = 1 << 16
	beatShardCap = 4096 // > 2*beatBlockMax: a block never self-flushes mid-way
	beatWarmup   = 64   // closed-loop blocks per producer inside set-up
)

type beatLocal struct {
	cfg *config
	tr  *tracer
	ph  *phase
	hb  *heartbeat.Heartbeat
	sub observer.Stream

	ctx      context.Context
	cancel   context.CancelFunc
	stopOnce sync.Once
	stop     chan struct{}
	prodWG   sync.WaitGroup
	subWG    sync.WaitGroup

	producers []*heartbeat.Thread
	rngs      []*rand.Rand
	sent      []uint64 // producer-owned: beats sent per producer

	mu      sync.Mutex
	cond    *sync.Cond
	ids     map[int32]int
	got     []uint64 // delivered per producer
	lastTag []int64  // newest tag delivered per producer
	tracker *simcheck.Tracker
	failure error
}

func setupBeatLocal(cfg *config, tr *tracer, ph *phase) (pipeline, error) {
	hb, err := heartbeat.New(0,
		heartbeat.WithCapacity(beatCapacity),
		heartbeat.WithShardCapacity(beatShardCap))
	if err != nil {
		return nil, err
	}
	n := cfg.nproc
	w := &beatLocal{
		cfg: cfg, tr: tr, ph: ph, hb: hb,
		stop:    make(chan struct{}),
		sent:    make([]uint64, n),
		ids:     map[int32]int{},
		got:     make([]uint64, n),
		lastTag: make([]int64, n),
		tracker: simcheck.NewTracker("beat-local subscriber", 0),
	}
	w.cond = sync.NewCond(&w.mu)
	for i := 0; i < n; i++ {
		th := hb.Thread(fmt.Sprintf("producer-%d", i))
		w.producers = append(w.producers, th)
		w.rngs = append(w.rngs, rand.New(rand.NewSource(cfg.seed*7919+int64(i))))
		w.ids[th.ID()] = i
	}
	w.ctx, w.cancel = context.WithCancel(context.Background())
	w.sub = tr.stream(observer.HeartbeatStream(hb), &tr.heartbeat)
	w.subWG.Add(1)
	go w.consume()

	for i := range w.producers {
		for b := 0; b < beatWarmup; b++ {
			if err := w.block(i); err != nil {
				w.close()
				return nil, err
			}
		}
	}
	return w, nil
}

func (w *beatLocal) start() {
	for i := range w.producers {
		w.prodWG.Add(1)
		go func(i int) {
			defer w.prodWG.Done()
			for {
				select {
				case <-w.stop:
					return
				default:
				}
				if w.block(i) != nil {
					return
				}
			}
		}(i)
	}
}

// block beats one seeded-size block on producer i, flushes, and waits for
// its delivery. The block is timed as a whole: timing each beat alone
// would roughly double the cost being measured.
func (w *beatLocal) block(i int) error {
	th := w.producers[i]
	n := beatBlockMin + w.rngs[i].Intn(beatBlockMax-beatBlockMin+1)
	tag := int64(w.sent[i])
	t0 := now()
	for k := 1; k <= n; k++ {
		th.GlobalBeatTag(tag + int64(k))
	}
	t1 := now()
	w.hb.Flush()
	t2 := now()
	w.ph.cost(t1, t1.Sub(t0), n)
	if w.tr.on() {
		w.tr.flushNs.Add(int64(t2.Sub(t1)))
		w.tr.flushes.Add(1)
		w.tr.genNs.Add(int64(t1.Sub(t0)))
	}
	w.sent[i] += uint64(n)
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.got[i] < w.sent[i] && w.failure == nil {
		w.cond.Wait()
	}
	return w.failure
}

func (w *beatLocal) consume() {
	defer w.subWG.Done()
	for {
		b, err := w.sub.Next(w.ctx)
		if err != nil {
			if w.ctx.Err() == nil && !errors.Is(err, heartbeat.ErrClosed) {
				w.fail(fmt.Errorf("beat-local subscriber: %w", err))
			}
			return
		}
		at := now()
		recs := b.Records
		w.ph.consumed(at, len(recs), func(i int) time.Time { return recs[i].Time })
		w.mu.Lock()
		if err := w.tracker.Absorb(b); err != nil {
			w.failLocked(err)
		}
		for _, r := range recs {
			p, ok := w.ids[r.Producer]
			if !ok {
				w.failLocked(fmt.Errorf("record seq %d from unknown producer %d", r.Seq, r.Producer))
				break
			}
			if r.Tag != w.lastTag[p]+1 {
				w.failLocked(fmt.Errorf("producer %d: tag %d after %d", p, r.Tag, w.lastTag[p]))
				break
			}
			w.lastTag[p] = r.Tag
			w.got[p]++
		}
		w.mu.Unlock()
		w.cond.Broadcast()
	}
}

func (w *beatLocal) failLocked(err error) {
	if w.failure == nil {
		w.failure = err
	}
}

func (w *beatLocal) fail(err error) {
	w.mu.Lock()
	w.failLocked(err)
	w.mu.Unlock()
	w.cond.Broadcast()
}

func (w *beatLocal) finish() (tally, error) {
	w.stopOnce.Do(func() { close(w.stop) })
	w.prodWG.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	t := tally{published: w.hb.Count(), delivered: w.tracker.Delivered()}
	if w.failure != nil {
		return t, w.failure
	}
	for i, n := range w.sent {
		if w.got[i] != n {
			return t, fmt.Errorf("producer %d: sent %d, delivered %d", i, n, w.got[i])
		}
	}
	if err := simcheck.Conserved("beat-local subscriber", w.tracker.Delivered(), w.tracker.Missed(), t.published); err != nil {
		return t, err
	}
	if err := w.tracker.CheckLives(1); err != nil {
		return t, err
	}
	return t, w.tracker.Err()
}

func (w *beatLocal) close() {
	w.stopOnce.Do(func() { close(w.stop) })
	w.fail(errClosed) // releases producers waiting on a delivery
	w.prodWG.Wait()
	w.cancel()
	w.hb.Close()
	w.subWG.Wait()
}
