package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/balance"
	"repro/hbnet"
	"repro/heartbeat"
	"repro/internal/loadgen"
	"repro/internal/simcheck"
	"repro/observer"
)

// fleet-rollup: an open loop at a low per-producer rate from a seeded
// loadgen.Fleet on the wall clock — many upstreams, small batches, and the
// rollup → compaction → balance path, with no heartbeat producer at all.
// The fleet's app streams feed a leaf relay; the root relay dials the
// leaf's merged and rollup feeds (two loopback connections); in-process
// consumers read the root's merged feed and its compacted rollups, which
// drive a balance.Updater whose Table is picked from between batches.
const (
	fleetProducers = 20_000
	fleetApps      = 256
	fleetBeatEvery = 100 * time.Millisecond
	fleetJitter    = 0.2
	fleetZipfS     = 1.1
	fleetPumpTick  = time.Millisecond
	fleetChurn     = 0.05 // share of producers that leave mid-run (most rejoin)
	fleetBursts    = 2    // correlated silence bursts per run
	fleetBurstFrac = 0.1
	fleetBurstLen  = time.Second
	fleetWindow    = 200 * time.Millisecond // rollup window at both relays
	fleetPicks     = 256                    // Table.Pick lookups between rollup batches
	mergedRetain   = 1 << 17                // relay replay ring, records
)

// pumpClock is the wall WaitClock the fleet's single pump goroutine runs
// on, built on the heartbeat clock seam. The pump reads the clock right after each wake and again right
// before its next wait, so the interval between a Now that was not
// followed by a wait and the next Now is one generator step: its producer
// cost, and the wake's distance from the requested deadline is how late
// the generator ran.
type pumpClock struct {
	ph    *phase
	tr    *tracer
	fleet *loadgen.Fleet

	mu      sync.Mutex
	start   time.Time // the pump's first reading: its schedule's origin
	last    time.Time
	lastPub uint64
	waiting bool
	due     time.Time
}

func (c *pumpClock) Now() time.Time {
	t := now()
	c.mu.Lock()
	defer c.mu.Unlock()
	var pub uint64
	if c.fleet != nil {
		pub = c.fleet.TotalPublished()
	}
	if c.start.IsZero() {
		c.start = t
	}
	if c.waiting {
		c.ph.lateBy(t.Sub(c.due))
	} else if !c.last.IsZero() && pub > c.lastPub {
		step := t.Sub(c.last)
		c.ph.cost(t, step, int(pub-c.lastPub))
		if c.tr.on() {
			c.tr.genNs.Add(int64(step))
		}
	}
	c.lastPub, c.waiting = pub, false
	c.last = now() // a step, if one follows, starts after this bookkeeping
	return t
}

// stepDue returns the instant the pump is scheduled to publish a record
// whose loadgen Record.Time is t: the end of the pump tick t falls in.
// Ages are measured from it, so the tick's quantization, up to one
// fleetPumpTick, is not counted as delivery age. How late the pump ran
// against that schedule still is, and gen.late_p99_ms reports it.
func (c *pumpClock) stepDue(t time.Time) time.Time {
	c.mu.Lock()
	start := c.start
	c.mu.Unlock()
	ticks := (t.Sub(start) + fleetPumpTick - 1) / fleetPumpTick
	return start.Add(ticks * fleetPumpTick)
}

func (c *pumpClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	c.waiting, c.due = true, c.last.Add(d)
	c.mu.Unlock()
	return heartbeat.After(nil, d)
}

// clientRollups adapts a rollup-dialed Client to hbnet.RollupStream.
type clientRollups struct{ c *hbnet.Client }

func (s clientRollups) Next(ctx context.Context) (hbnet.RollupBatch, error) {
	return s.c.NextRollups(ctx)
}
func (s clientRollups) Close() error { return s.c.Close() }

type fleetRollup struct {
	cfg   *config
	tr    *tracer
	ph    *phase
	fleet *loadgen.Fleet
	clk   *pumpClock
	leaf  *node
	root  *hbnet.Relay
	up    *hbnet.Client
	rup   *hbnet.Client
	keys  []uint64

	ctx      context.Context
	cancel   context.CancelFunc
	fleetCtx context.Context
	stopGen  context.CancelFunc
	genWG    sync.WaitGroup
	relays   func()
	consWG   sync.WaitGroup
	heads    heads

	mu       sync.Mutex
	tracker  *simcheck.Tracker
	rollups  simcheck.RollupAccount
	appSum   map[string]uint64
	updater  *balance.Updater
	absorbed atomic.Int64 // compacted rollup batches absorbed
	swaps    int
	failure  error
}

func setupFleetRollup(cfg *config, tr *tracer, ph *phase) (p pipeline, err error) {
	w := &fleetRollup{
		cfg: cfg, tr: tr, ph: ph,
		tracker: simcheck.NewTracker("fleet-rollup merged consumer", 0),
		appSum:  map[string]uint64{},
	}
	w.ctx, w.cancel = context.WithCancel(context.Background())
	w.fleetCtx, w.stopGen = context.WithCancel(w.ctx)
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	clk := &pumpClock{ph: ph, tr: tr}
	w.clk = clk
	w.fleet = loadgen.New(loadgen.Config{
		Seed:      cfg.seed,
		Producers: fleetProducers,
		Apps:      fleetApps,
		BeatEvery: fleetBeatEvery,
		Jitter:    fleetJitter,
		ZipfS:     fleetZipfS,
		Duration:  cfg.round,
		ChurnFrac: fleetChurn,
		Bursts:    fleetBursts,
		BurstFrac: fleetBurstFrac,
		BurstLen:  fleetBurstLen,
		PumpTick:  fleetPumpTick,
	}, clk)
	clk.mu.Lock()
	clk.fleet = w.fleet
	clk.mu.Unlock()
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x6a09e667))
	for i := 0; i < fleetPicks; i++ {
		w.keys = append(w.keys, rng.Uint64())
	}
	w.updater = balance.NewUpdater(balance.New(), balance.DefaultPolicy(), balance.WithOnSwap(w.onSwap))

	w.leaf = &node{relay: hbnet.NewRelay(hbnet.WithRollupInterval(fleetWindow), hbnet.WithMergedRetain(mergedRetain))}
	leaf := w.leaf.relay
	for i := 0; i < w.fleet.Apps(); i++ {
		if err := leaf.AddUpstream(w.fleet.AppName(i), tr.stream(w.fleet.Stream(i), &tr.pump)); err != nil {
			return nil, err
		}
	}
	if err := w.leaf.serve(func(s *hbnet.Server) error {
		if err := s.Publish("merged", tr.feed(leaf.MergedFeed())); err != nil {
			return err
		}
		return s.PublishRollup("rollup", tr.rollupFeed(leaf.RollupFeed()))
	}); err != nil {
		return nil, err
	}
	w.root = hbnet.NewRelay(hbnet.WithRollupInterval(fleetWindow), hbnet.WithMergedRetain(mergedRetain))
	if w.up, err = hbnet.Dial(w.leaf.addr, "merged"); err != nil {
		return nil, err
	}
	if err := w.root.AddUpstream("leaf", tr.stream(w.up, &tr.clientNet, &tr.pump)); err != nil {
		w.up.Close()
		return nil, err
	}
	if w.rup, err = hbnet.DialRollup(w.leaf.addr, "rollup"); err != nil {
		return nil, err
	}
	if err := w.root.AddRollupUpstream("leaf", tr.rollups(clientRollups{w.rup}, &tr.rollupUp, false)); err != nil {
		w.rup.Close()
		return nil, err
	}
	merged, err := w.root.MergedFeed()(w.ctx, 0)
	if err != nil {
		return nil, err
	}
	compacted, err := w.root.CompactedFeed()(w.ctx, 0)
	if err != nil {
		return nil, err
	}
	w.relays = runRelays(w.ctx, leaf, w.root)
	w.consWG.Add(2)
	go w.consumeRecords(merged)
	go w.consumeRollups(tr.rollups(compacted, &tr.rollupObs, true))
	w.genWG.Add(1)
	go func() {
		defer w.genWG.Done()
		w.fleet.Run(w.fleetCtx)
	}()

	// Warm-up ends when records have crossed the whole tree and the first
	// compacted rollups have built the routing table.
	if err := waitFor("fleet-rollup first delivery", func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return (w.tracker.Delivered() > 0 && w.absorbed.Load() > 0) || w.failure != nil
	}); err != nil {
		return nil, err
	}
	w.mu.Lock()
	err = w.failure
	w.mu.Unlock()
	return w, err
}

// onSwap checks every published table change for minimal disruption.
func (w *fleetRollup) onSwap(s balance.Swap) {
	w.mu.Lock()
	w.swaps++
	w.failLocked(simcheck.CheckRemap("balance table swap "+s.Node, s.Frac(), s.Share))
	w.mu.Unlock()
}

func (w *fleetRollup) consumeRecords(s observer.Stream) {
	defer w.consWG.Done()
	for {
		b, err := s.Next(w.ctx)
		if err != nil {
			if w.ctx.Err() == nil && !errors.Is(err, io.EOF) {
				w.fail(fmt.Errorf("merged consumer: %w", err))
			}
			return
		}
		at := now()
		recs := b.Records
		w.ph.consumed(at, len(recs), func(i int) time.Time { return w.clk.stepDue(recs[i].Time) })
		w.mu.Lock()
		w.failLocked(w.tracker.Absorb(b))
		w.mu.Unlock()
	}
}

func (w *fleetRollup) consumeRollups(s hbnet.RollupStream) {
	defer w.consWG.Done()
	table := w.updater.Table()
	for {
		b, err := s.Next(w.ctx)
		if err != nil {
			if w.ctx.Err() == nil && !errors.Is(err, io.EOF) {
				w.fail(fmt.Errorf("rollup consumer: %w", err))
			}
			return
		}
		w.mu.Lock()
		w.rollups.AbsorbRollups(b.Rollups, b.Missed)
		for _, r := range b.Rollups {
			w.appSum[r.App] += r.Records + r.Missed
		}
		w.mu.Unlock()
		t0 := now()
		w.updater.Absorb(b.Rollups...)
		t1 := now()
		for _, k := range w.keys {
			table.Pick(k)
		}
		t2 := now()
		w.absorbed.Add(1)
		if w.tr.on() {
			w.tr.absorbNs.Add(int64(t1.Sub(t0)))
			w.tr.absorbs.Add(1)
			w.tr.pickNs.Add(int64(t2.Sub(t1)))
			w.tr.picks.Add(int64(len(w.keys)))
		}
	}
}

func (w *fleetRollup) failLocked(err error) {
	if err != nil && w.failure == nil {
		w.failure = err
	}
}

func (w *fleetRollup) fail(err error) {
	w.mu.Lock()
	w.failLocked(err)
	w.mu.Unlock()
}

func (w *fleetRollup) start() {
	w.heads = markHeads(w.leaf.relay, w.root)
}

func (w *fleetRollup) finish() (tally, error) {
	t := tally{counts: map[string]float64{}}
	t.mergedRps = w.heads.rate()
	w.stopGen()
	w.genWG.Wait()
	t.published = w.fleet.TotalPublished()
	settled := func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.failure != nil {
			return true
		}
		if w.tracker.Delivered()+w.tracker.Missed() != t.published ||
			w.rollups.Records+w.rollups.Missed != t.published {
			return false
		}
		for i := 0; i < w.fleet.Apps(); i++ {
			if w.appSum[w.fleet.AppName(i)] != w.fleet.AppHead(i) {
				return false
			}
		}
		return true
	}
	err := waitFor("fleet-rollup drain", settled)
	w.mu.Lock()
	defer w.mu.Unlock()
	t.delivered = w.tracker.Delivered()
	shed := w.leaf.relay.Shed() + w.root.Shed()
	t.counts["hbnet.client_missed"] = float64(w.up.Missed() + w.rup.Missed())
	t.counts["hbnet.reconnects"] = float64(w.up.Reconnects() + w.rup.Reconnects())
	t.counts["relay.shed"] = float64(shed)
	t.counts["relay.rollup_upstream_missed"] = float64(w.leaf.relay.RollupUpstreamMissed() + w.root.RollupUpstreamMissed())
	t.counts["balance.swaps"] = float64(w.swaps)
	if err != nil {
		return t, err
	}
	if w.failure != nil {
		return t, w.failure
	}
	leafHead, rootHead := w.leaf.relay.MergedHead(), w.root.MergedHead()
	for _, check := range []error{
		w.tracker.Err(),
		w.tracker.CheckLives(1),
		simcheck.Conserved("fleet → leaf relay", leafHead, 0, t.published),
		simcheck.Conserved("leaf → root relay", rootHead, 0, leafHead),
		w.tracker.CheckConserved(rootHead),
		w.rollups.CheckConserved("compacted rollups", rootHead),
		simcheck.CheckShed("fleet-rollup tree", shed, w.tracker.Missed()),
	} {
		if check != nil {
			return t, check
		}
	}
	if n := w.root.RollupUpstreamMissed(); n != 0 {
		return t, fmt.Errorf("root lost %d rollup emissions from the leaf", n)
	}
	if got := len(w.root.RollupApps()); got != w.fleet.Apps() {
		return t, fmt.Errorf("root compacts %d applications, want %d", got, w.fleet.Apps())
	}
	if left, rejoined := w.fleet.Churned(); left == 0 || rejoined == 0 {
		return t, fmt.Errorf("churn unexercised: left=%d rejoined=%d", left, rejoined)
	}
	if w.fleet.Silenced() == 0 {
		return t, errors.New("silence bursts unexercised")
	}
	return t, nil
}

func (w *fleetRollup) close() {
	w.stopGen()
	w.genWG.Wait()
	w.cancel()
	if w.relays != nil {
		w.relays()
	}
	w.consWG.Wait()
	if w.leaf != nil {
		w.leaf.close()
	}
	if w.root != nil {
		w.root.Close()
	}
	w.fleet.CloseStreams()
}
