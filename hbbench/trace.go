package main

import (
	"context"
	"io"
	"sync/atomic"
	"time"

	"repro/hbnet"
	"repro/heartbeat"
	"repro/observer"
)

// The traced run measures layers from outside the program: every seam the
// benchmark hands to the system (the streams given to Relay.AddUpstream,
// the feeds given to Server.Publish/PublishRollup, the heartbeat Sink, the
// rollup batches given to balance.Updater.Absorb) is wrapped in a timing
// shim. For a consumer that calls Next in a loop, the time blocked inside
// Next is its wait, and the gap between a Next return and its next call is
// its self time on that batch (a relay pump: merge hand-off; a server:
// encode and socket write).

// layer accumulates one seam's counts over the measured interval. Fields
// are atomic because several goroutines feed one layer (one relay pump per
// upstream) while the report reads them after the run.
type layer struct {
	batches atomic.Int64
	recs    atomic.Int64
	waitNs  atomic.Int64
	selfNs  atomic.Int64
	selfN   atomic.Int64 // batches whose self time is measured
	missed  atomic.Int64
}

func (l *layer) waitUs() float64 { return perUnit(l.waitNs.Load(), l.batches.Load()) / 1e3 }
func (l *layer) batchRecs() float64 {
	return perUnit(l.recs.Load(), l.batches.Load())
}
func (l *layer) selfNsPerRec() float64   { return perUnit(l.selfNs.Load(), l.recs.Load()) }
func (l *layer) selfUsPerBatch() float64 { return perUnit(l.selfNs.Load(), l.selfN.Load()) / 1e3 }

func perUnit(total, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// tracer owns the layers of one run. In the untraced run (traced false)
// its wrap methods hand every seam through unchanged.
type tracer struct {
	ph     *phase
	traced bool

	heartbeat layer // in-process subscription drained by the final consumer
	flushNs   atomic.Int64
	flushes   atomic.Int64

	shm       layer // shared-memory tails, as called by the leaf relay
	writeNs   atomic.Int64
	writes    atomic.Int64
	clientNet layer // hbnet clients: relay upstreams and final subscribers
	server    layer // hbnet server pushes of raw feeds
	rollupSrv layer // hbnet server pushes of rollup feeds
	rollupUp  layer // relay rollup-upstream pumps
	pump      layer // every relay pump's upstream stream
	rollupObs layer // compacted rollup consumer
	emitLagNs atomic.Int64

	absorbNs atomic.Int64
	absorbs  atomic.Int64
	pickNs   atomic.Int64
	picks    atomic.Int64
	genNs    atomic.Int64 // producer-side time: beat blocks or generator steps
}

func (t *tracer) on() bool { return t.traced && t.ph.on() }

// timedStream wraps an observer.Stream; every layer in ls is charged.
type timedStream struct {
	inner observer.Stream
	t     *tracer
	ls    []*layer
	last  time.Time
}

func (t *tracer) stream(s observer.Stream, ls ...*layer) observer.Stream {
	if !t.traced {
		return s
	}
	return &timedStream{inner: s, t: t, ls: ls}
}

func (s *timedStream) Next(ctx context.Context) (observer.Batch, error) {
	t0 := now()
	b, err := s.inner.Next(ctx)
	t1 := now()
	if s.t.on() && err == nil {
		for _, l := range s.ls {
			l.batches.Add(1)
			l.recs.Add(int64(len(b.Records)))
			l.waitNs.Add(int64(t1.Sub(t0)))
			l.missed.Add(int64(b.Missed))
			if !s.last.IsZero() {
				l.selfNs.Add(int64(t0.Sub(s.last)))
				l.selfN.Add(1)
			}
		}
	}
	s.last = t1
	return b, err
}

// Recycle forwards the relay's and server's batch-recycling contract.
func (s *timedStream) Recycle(b observer.Batch) {
	if r, ok := s.inner.(hbnet.BatchRecycler); ok {
		r.Recycle(b)
	}
}

// Close forwards ownership-close to the wrapped stream.
func (s *timedStream) Close() error {
	if c, ok := s.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// feed wraps a Feed so each subscriber's stream is timed. A wrapped stream
// no longer offers the relay's pre-encoded frames, so the traced server
// encodes per connection: part of what trace.overhead_frac reports.
func (t *tracer) feed(f hbnet.Feed) hbnet.Feed {
	if !t.traced {
		return f
	}
	return func(ctx context.Context, since uint64) (observer.Stream, error) {
		s, err := f(ctx, since)
		if err != nil {
			return nil, err
		}
		return t.stream(s, &t.server), nil
	}
}

// timedRollups wraps a RollupStream, charging rollup counts to l.
type timedRollups struct {
	inner hbnet.RollupStream
	t     *tracer
	l     *layer
	lag   bool // also charge receipt − window End to emitLagNs
	last  time.Time
}

func (t *tracer) rollups(s hbnet.RollupStream, l *layer, lag bool) hbnet.RollupStream {
	if !t.traced {
		return s
	}
	return &timedRollups{inner: s, t: t, l: l, lag: lag}
}

func (s *timedRollups) Next(ctx context.Context) (hbnet.RollupBatch, error) {
	t0 := now()
	b, err := s.inner.Next(ctx)
	t1 := now()
	if s.t.on() && err == nil {
		s.l.batches.Add(1)
		s.l.recs.Add(int64(len(b.Rollups)))
		s.l.waitNs.Add(int64(t1.Sub(t0)))
		s.l.missed.Add(int64(b.Missed))
		if !s.last.IsZero() {
			s.l.selfNs.Add(int64(t0.Sub(s.last)))
			s.l.selfN.Add(1)
		}
		if s.lag {
			for _, r := range b.Rollups {
				s.t.emitLagNs.Add(int64(t1.Sub(r.End)))
			}
		}
	}
	s.last = t1
	return b, err
}

func (s *timedRollups) Close() error {
	if c, ok := s.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

func (t *tracer) rollupFeed(f hbnet.RollupFeed) hbnet.RollupFeed {
	if !t.traced {
		return f
	}
	return func(ctx context.Context, since uint64) (hbnet.RollupStream, error) {
		s, err := f(ctx, since)
		if err != nil {
			return nil, err
		}
		return t.rollups(s, &t.rollupSrv, false), nil
	}
}

// sinkSample times one write in sinkSample: two clock reads around a
// single shared-memory store would otherwise triple what they measure.
const sinkSample = 16

// timedSink wraps a heartbeat.Sink, timing every sinkSample-th write.
type timedSink struct {
	inner heartbeat.Sink
	t     *tracer
	n     atomic.Uint64
}

func (t *tracer) sink(s heartbeat.Sink) heartbeat.Sink {
	if !t.traced {
		return s
	}
	return &timedSink{inner: s, t: t}
}

func (s *timedSink) WriteRecord(r heartbeat.Record) error {
	if s.n.Add(1)%sinkSample != 0 || !s.t.on() {
		return s.inner.WriteRecord(r)
	}
	t0 := now()
	err := s.inner.WriteRecord(r)
	s.t.writeNs.Add(int64(now().Sub(t0)))
	s.t.writes.Add(1)
	return err
}

func (s *timedSink) Close() error {
	if c, ok := s.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
