package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/hbnet"
	"repro/hbshm"
	"repro/heartbeat"
	"repro/internal/simcheck"
	"repro/observer"
)

// relay-hot: an open loop at a fixed high rate over the full ladder. One
// pacing goroutine drives relayHotProducers Heartbeats through the
// synchronous BeatTag path, tagging each record with its due time; each
// Heartbeat's sink is a shared-memory ring the leaf relay tails; the leaf's
// merged feed crosses loopback TCP to a root relay, whose merged feed
// crosses loopback TCP to one hbnet.Client subscriber.
const (
	// relayHotRate is the offered rate, records/s, fixed once: one
	// eighth of the highest lossless rate measured (README.md).
	relayHotRate      = 250_000
	relayHotProducers = 2
	relayHotTick      = 700 * time.Microsecond // pacing quantum of the generator
	relayHotShmCap    = 1 << 16                // records per shared-memory ring
	relayHotShmPoll   = time.Millisecond       // idle poll of the leaf's shm tails
	relayHotWarmup    = 20_000                 // records pushed through the ladder in set-up
)

// node is one relay with, once serve has run, its server listening on
// loopback.
type node struct {
	relay *hbnet.Relay
	srv   *hbnet.Server
	addr  string
	wg    sync.WaitGroup
}

func (n *node) serve(publish func(*hbnet.Server) error) error {
	srv := hbnet.NewServer()
	if err := publish(srv); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.srv, n.addr = srv, ln.Addr().String()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		srv.Serve(ln)
	}()
	return nil
}

// close stops the server, waits for it, and closes the relay with every
// upstream it owns.
func (n *node) close() {
	if n.srv != nil {
		n.srv.Close()
		n.wg.Wait()
	}
	n.relay.Close()
}

// runRelays runs every relay's loop until ctx ends; the returned wait
// blocks until each loop has exited.
func runRelays(ctx context.Context, rs ...*hbnet.Relay) (wait func()) {
	var wg sync.WaitGroup
	for _, r := range rs {
		wg.Add(1)
		go func(r *hbnet.Relay) {
			defer wg.Done()
			r.Run(ctx)
		}(r)
	}
	return wg.Wait
}

// heads is a reading of relays' merged heads, the start of a merged-rate
// measurement.
type heads struct {
	at     time.Time
	relays []*hbnet.Relay
	head   []uint64
}

func markHeads(rs ...*hbnet.Relay) heads {
	h := heads{at: now(), relays: rs}
	for _, r := range rs {
		h.head = append(h.head, r.MergedHead())
	}
	return h
}

// rate returns the mean merged-head growth per second across the relays
// since the reading.
func (h heads) rate() float64 {
	dt := now().Sub(h.at).Seconds()
	var sum float64
	for i, r := range h.relays {
		sum += float64(r.MergedHead() - h.head[i])
	}
	return sum / float64(len(h.relays)) / dt
}

// waitFor polls cond until it holds or drainTimeout passes.
func waitFor(what string, cond func() bool) error {
	deadline := now().Add(drainTimeout)
	for !cond() {
		if now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", drainTimeout, what)
		}
		<-heartbeat.After(nil, 2*time.Millisecond)
	}
	return nil
}

type relayHot struct {
	cfg    *config
	tr     *tracer
	ph     *phase
	period time.Duration // time between consecutive due records

	hbs     []*heartbeat.Heartbeat
	writers []*hbshm.Writer
	paths   []string
	leaf    *node
	root    *node
	up      *hbnet.Client // root's dial of the leaf
	sub     *hbnet.Client // the final subscriber
	subs    observer.Stream
	ctx     context.Context
	cancel  context.CancelFunc
	relays  func()
	consWG  sync.WaitGroup
	genStop chan struct{}
	genWG   sync.WaitGroup
	started bool

	base  atomic.Int64 // due time of record 0, Unix ns
	sent  int64        // generator-owned: measured records sent
	heads heads

	mu      sync.Mutex
	tracker *simcheck.Tracker
	seen    []uint64 // bitmap of measured record indices delivered
	warm    int      // warm-up records delivered
	failure error
}

func setupRelayHot(cfg *config, tr *tracer, ph *phase) (p pipeline, err error) {
	w := &relayHot{
		cfg: cfg, tr: tr, ph: ph,
		period:  time.Second / relayHotRate,
		tracker: simcheck.NewTracker("relay-hot subscriber", 0),
		genStop: make(chan struct{}),
	}
	w.seen = make([]uint64, int64(relayHotRate*(cfg.round+2*time.Second).Seconds())/64+1)
	w.ctx, w.cancel = context.WithCancel(context.Background())
	defer func() {
		if err != nil {
			w.close()
		}
	}()

	w.leaf = &node{relay: hbnet.NewRelay(hbnet.WithMergedRetain(mergedRetain))}
	leaf := w.leaf.relay
	for i := 0; i < relayHotProducers; i++ {
		path := filepath.Join(cfg.dir, fmt.Sprintf("relay-hot-%d-%d.shm", os.Getpid(), i))
		wr, err := hbshm.Create(path, heartbeat.DefaultWindow, relayHotShmCap)
		if err != nil {
			return nil, err
		}
		w.paths = append(w.paths, path)
		w.writers = append(w.writers, wr)
		hb, err := heartbeat.New(0, heartbeat.WithSink(tr.sink(wr)))
		if err != nil {
			return nil, err
		}
		w.hbs = append(w.hbs, hb)
		rd, err := hbshm.Open(path)
		if err != nil {
			return nil, err
		}
		tail := hbshm.StreamFrom(rd, relayHotShmPoll, 0, nil)
		if err := leaf.AddUpstream(fmt.Sprintf("producer-%d", i), tr.stream(tail, &tr.shm, &tr.pump)); err != nil {
			tail.Close()
			return nil, err
		}
	}
	if err := w.leaf.serve(func(s *hbnet.Server) error { return s.Publish("merged", tr.feed(leaf.MergedFeed())) }); err != nil {
		return nil, err
	}
	w.root = &node{relay: hbnet.NewRelay(hbnet.WithMergedRetain(mergedRetain))}
	root := w.root.relay
	if w.up, err = hbnet.Dial(w.leaf.addr, "merged"); err != nil {
		return nil, err
	}
	if err := root.AddUpstream("leaf", tr.stream(w.up, &tr.clientNet, &tr.pump)); err != nil {
		w.up.Close()
		return nil, err
	}
	if err := w.root.serve(func(s *hbnet.Server) error { return s.Publish("merged", tr.feed(root.MergedFeed())) }); err != nil {
		return nil, err
	}
	w.relays = runRelays(w.ctx, leaf, root)
	if w.sub, err = hbnet.Dial(w.root.addr, "merged"); err != nil {
		return nil, err
	}
	w.subs = tr.stream(w.sub, &tr.clientNet)
	w.consWG.Add(1)
	go w.consume()

	// Warm-up: a burst through the whole ladder, tagged below zero so the
	// consumer tells it from measured records.
	for k := 1; k <= relayHotWarmup; k++ {
		w.hbs[k%relayHotProducers].BeatTag(-int64(k))
	}
	if err := waitFor("relay-hot warm-up delivery", func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.warm == relayHotWarmup || w.failure != nil
	}); err != nil {
		return nil, err
	}
	w.mu.Lock()
	err = w.failure
	w.mu.Unlock()
	return w, err
}

func (w *relayHot) consume() {
	defer w.consWG.Done()
	for {
		b, err := w.subs.Next(w.ctx)
		if err != nil {
			if w.ctx.Err() == nil && !errors.Is(err, io.EOF) {
				w.fail(fmt.Errorf("relay-hot subscriber: %w", err))
			}
			return
		}
		at := now()
		recs := b.Records
		w.ph.consumed(at, len(recs), func(i int) time.Time {
			if recs[i].Tag < 0 {
				return at
			}
			return time.Unix(0, recs[i].Tag)
		})
		base := w.base.Load()
		w.mu.Lock()
		if err := w.tracker.Absorb(b); err != nil {
			w.failLocked(err)
		}
		for _, r := range recs {
			if r.Tag < 0 {
				w.warm++
				continue
			}
			idx := (r.Tag - base) / int64(w.period)
			if idx < 0 || idx/64 >= int64(len(w.seen)) {
				w.failLocked(fmt.Errorf("record seq %d: tag %d outside the run's schedule", r.Seq, r.Tag))
				break
			}
			bit := uint64(1) << (idx % 64)
			if w.seen[idx/64]&bit != 0 {
				w.failLocked(fmt.Errorf("record %d delivered twice", idx))
				break
			}
			w.seen[idx/64] |= bit
		}
		w.mu.Unlock()
		w.sub.Recycle(b)
	}
}

func (w *relayHot) failLocked(err error) {
	if w.failure == nil {
		w.failure = err
	}
}

func (w *relayHot) fail(err error) {
	w.mu.Lock()
	w.failLocked(err)
	w.mu.Unlock()
}

// start launches the pacing goroutine: every tick it beats every record
// whose due time has passed, timing the burst as one producer-cost sample.
func (w *relayHot) start() {
	start := now()
	w.base.Store(start.UnixNano())
	w.heads = markHeads(w.leaf.relay, w.root.relay)
	w.started = true
	rng := rand.New(rand.NewSource(w.cfg.seed))
	limit := int64(len(w.seen)) * 64
	w.genWG.Add(1)
	go func() {
		defer w.genWG.Done()
		tick := heartbeat.NewTicker(nil, relayHotTick)
		defer tick.Stop()
		for {
			select {
			case <-w.genStop:
				return
			case <-tick.C():
				tick.Next()
			}
			t := now()
			due := int64(t.Sub(start) / w.period)
			if due > limit {
				due = limit
			}
			if due <= w.sent {
				continue
			}
			w.ph.lateBy(t.Sub(start.Add(time.Duration(w.sent) * w.period)))
			n := int(due - w.sent)
			t0 := now()
			for ; w.sent < due; w.sent++ {
				w.hbs[rng.Intn(relayHotProducers)].BeatTag(start.UnixNano() + w.sent*int64(w.period))
			}
			t1 := now()
			w.ph.cost(t1, t1.Sub(t0), n)
			if w.tr.on() {
				w.tr.genNs.Add(int64(t1.Sub(t0)))
			}
		}
	}()
}

func (w *relayHot) stopGen() {
	if w.started {
		w.started = false
		close(w.genStop)
		w.genWG.Wait()
	}
}

func (w *relayHot) finish() (tally, error) {
	t := tally{counts: map[string]float64{}}
	t.mergedRps = w.heads.rate()
	w.stopGen()
	for _, hb := range w.hbs {
		t.published += hb.Count()
	}
	err := waitFor("relay-hot drain", func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.failure != nil || w.tracker.Delivered()+w.tracker.Missed() >= t.published
	})
	w.mu.Lock()
	defer w.mu.Unlock()
	t.delivered = w.tracker.Delivered()
	t.counts["hbnet.client_missed"] = float64(w.up.Missed() + w.sub.Missed())
	t.counts["hbnet.reconnects"] = float64(w.up.Reconnects() + w.sub.Reconnects())
	shed := w.leaf.relay.Shed() + w.root.relay.Shed()
	t.counts["relay.shed"] = float64(shed)
	t.counts["relay.rollup_upstream_missed"] = float64(w.leaf.relay.RollupUpstreamMissed() + w.root.relay.RollupUpstreamMissed())
	if err != nil {
		return t, err
	}
	if w.failure != nil {
		return t, w.failure
	}
	leafHead, rootHead := w.leaf.relay.MergedHead(), w.root.relay.MergedHead()
	for _, check := range []error{
		w.tracker.Err(),
		w.tracker.CheckLives(1),
		simcheck.Conserved("shm → leaf relay", leafHead, 0, t.published),
		simcheck.Conserved("leaf → root relay", rootHead, 0, leafHead),
		w.tracker.CheckConserved(rootHead),
		simcheck.CheckShed("relay-hot tree", shed, w.tracker.Missed()),
	} {
		if check != nil {
			return t, check
		}
	}
	if w.warm != relayHotWarmup {
		return t, fmt.Errorf("warm-up: %d of %d records delivered", w.warm, relayHotWarmup)
	}
	for i := int64(0); i < w.sent; i++ {
		if w.seen[i/64]&(1<<(i%64)) == 0 {
			return t, fmt.Errorf("record %d of %d never delivered", i, w.sent)
		}
	}
	return t, nil
}

func (w *relayHot) close() {
	w.stopGen()
	w.cancel()
	if w.relays != nil {
		w.relays()
	}
	if w.sub != nil {
		w.sub.Close()
	}
	w.consWG.Wait()
	for _, n := range []*node{w.root, w.leaf} {
		if n != nil {
			n.close()
		}
	}
	for _, hb := range w.hbs {
		hb.Close()
	}
	for _, wr := range w.writers {
		wr.Close()
	}
	for _, p := range w.paths {
		os.Remove(p)
	}
}
