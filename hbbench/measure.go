package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/heartbeat"
)

// now is the benchmark's one wall-clock read: the heartbeat clock seam.
func now() time.Time { return heartbeat.Now(nil) }

// cpuNow returns the process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks reads the host's CPU time counters (/proc/stat, all CPUs):
// the time the hypervisor gave to other guests while this one wanted to
// run, and the total. Both are 0 where the file is unreadable.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		var v uint64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// phase is the measured time of one run, made of rounds: each round wires
// a fresh pipeline and measures it for a whole number of windows of at
// most a second. The final
// consumer counts deliveries and samples ages into the current window,
// generators add their cost samples, and a sampler goroutine closes each
// window with the process CPU and delivery counts at its edge. Rates, CPU
// per record and tail quantiles are computed per window and reported as
// the median over all windows, so one descheduled second, or one unlucky
// pipeline, moves a reported figure by a rank, not by its whole weight.
type phase struct {
	win       time.Duration
	perRound  int // windows per round
	round     int // rounds begun so far; used by the run's goroutine only
	cur       atomic.Pointer[roundState]
	delivered atomic.Uint64

	// ages are the sampled delivery ages per window (ns), written by the
	// single final consumer only. ageN counts every delivered record the
	// consumer saw while on; one in stride of them is sampled.
	ages   [][]float64
	ageN   uint64
	stride uint64

	mu    sync.Mutex
	costs [][]float64 // producer cost samples per window (ns per record)
	late  []float64   // generator lateness samples (ns)

	// edges are the sampler's readings at each window edge, per round.
	edges [][]edge
	done  chan struct{}
}

// roundState is the measured round in progress; nil between rounds.
type roundState struct {
	start time.Time
	base  int // index of the round's first window
}

type edge struct {
	at           time.Time
	cpu          time.Duration
	delivered    uint64
	steal, ticks uint64 // host CPU ticks given to other guests, and all ticks
}

func (p *phase) mark() edge {
	steal, ticks := cpuTicks()
	return edge{at: now(), cpu: cpuNow(), delivered: p.delivered.Load(), steal: steal, ticks: ticks}
}

// newPhase sizes a phase of rounds rounds, each round long. stride keeps
// one age sample in stride delivered records: enough for exact per-window
// p99s without holding every record's age in the live heap the run also
// measures.
func newPhase(rounds int, round time.Duration, stride uint64) *phase {
	// Split the round into equal windows of at most a second, so the
	// windows cover all of it.
	perRound := int((round + time.Second - 1) / time.Second)
	win := round / time.Duration(perRound)
	n := rounds * perRound
	return &phase{
		win:      win,
		perRound: perRound,
		stride:   stride,
		ages:     make([][]float64, n),
		costs:    make([][]float64, n),
		edges:    make([][]edge, rounds),
	}
}

// begin opens the current round's measured interval and starts its
// window sampler, which exits once it has closed every window.
func (p *phase) begin() {
	first := p.mark()
	rs := &roundState{start: first.at, base: p.round * p.perRound}
	es := &p.edges[p.round]
	*es = []edge{first}
	p.done = make(chan struct{})
	p.cur.Store(rs)
	go func() {
		defer close(p.done)
		tick := heartbeat.NewTicker(nil, p.win)
		defer tick.Stop()
		for len(*es) <= p.perRound {
			<-tick.C()
			tick.Next()
			*es = append(*es, p.mark())
		}
	}()
}

// end waits until the round's last window has closed, then closes the
// round's measured interval.
func (p *phase) end() {
	<-p.done
	p.cur.Store(nil)
	p.round++
}

// on reports whether a round is being measured.
func (p *phase) on() bool { return p.cur.Load() != nil }

// slot returns the window index t falls in, and false between rounds.
func (p *phase) slot(t time.Time) (int, bool) {
	rs := p.cur.Load()
	if rs == nil {
		return 0, false
	}
	i := int(t.Sub(rs.start) / p.win)
	if i < 0 {
		i = 0
	}
	if i >= p.perRound {
		i = p.perRound - 1
	}
	return rs.base + i, true
}

// consumed records one delivered batch at the final consumer: due returns
// the due time of record i, the instant the age is measured from.
func (p *phase) consumed(at time.Time, n int, due func(i int) time.Time) {
	s, ok := p.slot(at)
	if !ok || n == 0 {
		return
	}
	p.delivered.Add(uint64(n))
	for i := 0; i < n; i++ {
		if p.ageN%p.stride == 0 {
			p.ages[s] = append(p.ages[s], float64(at.Sub(due(i))))
		}
		p.ageN++
	}
}

// cost records one producer cost sample: a block of n beats (or one
// generator step emitting n records) that took d.
func (p *phase) cost(at time.Time, d time.Duration, n int) {
	s, ok := p.slot(at)
	if !ok || n == 0 {
		return
	}
	p.mu.Lock()
	p.costs[s] = append(p.costs[s], float64(d)/float64(n))
	p.mu.Unlock()
}

// lateBy records how far behind its schedule the generator started a step.
func (p *phase) lateBy(d time.Duration) {
	if !p.on() {
		return
	}
	p.mu.Lock()
	p.late = append(p.late, float64(d))
	p.mu.Unlock()
}

// window is one closed measurement window.
type window struct {
	rps       float64 // records delivered per second; 0 when none were
	cpuPerRec float64 // process CPU ns per delivered record
	steal     float64 // share of the host's CPU time given to other guests
	ages      []float64
	costs     []float64
}

// windows returns every window the sampler closed, in order.
func (p *phase) windows() []window {
	var out []window
	for r, es := range p.edges {
		for j := 1; j < len(es); j++ {
			a, b := es[j-1], es[j]
			slot := r*p.perRound + j - 1
			w := window{ages: p.ages[slot], costs: p.costs[slot]}
			if n := b.delivered - a.delivered; n > 0 {
				w.rps = float64(n) / b.at.Sub(a.at).Seconds()
				w.cpuPerRec = float64(b.cpu-a.cpu) / float64(n)
			}
			if b.ticks > a.ticks {
				w.steal = float64(b.steal-a.steal) / float64(b.ticks-a.ticks)
			}
			out = append(out, w)
		}
	}
	return out
}

// quiet returns the quarter of the windows with the least host steal:
// those at or below the run's lower quartile of steal, the share of the
// host's CPU time the hypervisor gave to other guests. On a shared host
// steal arrives in bursts of milliseconds; a window it reaches has every
// figure raised, whatever the system's own costs.
func quiet(ws []window) []window {
	steal := make([]float64, len(ws))
	for i, w := range ws {
		steal[i] = w.steal
	}
	limit := quantile(steal, 0.25)
	var out []window
	for _, w := range ws {
		if w.steal <= limit {
			out = append(out, w)
		}
	}
	return out
}

// over returns the median of f over the windows where f is defined.
func over(ws []window, f func(window) (float64, bool)) float64 {
	var xs []float64
	for _, w := range ws {
		if v, ok := f(w); ok {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

func rpsOf(w window) (float64, bool) { return w.rps, w.rps > 0 }
func cpuOf(w window) (float64, bool) { return w.cpuPerRec, w.rps > 0 }

// ageAt returns the per-window q-quantile of the ages, in ms.
func ageAt(q float64) func(window) (float64, bool) {
	return func(w window) (float64, bool) { return quantile(w.ages, q) / 1e6, len(w.ages) > 0 }
}

// costs pools the producer-cost samples of ws. Generator steps are too
// few per window for a per-window tail (fleet-rollup's pump steps 100
// times a second), so cost quantiles are taken over the pool.
func costs(ws []window) []float64 {
	var out []float64
	for _, w := range ws {
		out = append(out, w.costs...)
	}
	return out
}

func count(ws [][]float64) int {
	n := 0
	for _, w := range ws {
		n += len(w)
	}
	return n
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place). Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// rtSnap is a runtime/metrics reading taken at each end of a measured
// round: allocation volume, GC and total CPU, the scheduling latency
// histogram and the goroutine count.
type rtSnap struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
	sched      []uint64
	buckets    []float64
	goroutines uint64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
	"/sched/goroutines:goroutines",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r rtSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[3].Value.Float64Histogram()
		r.sched = append([]uint64(nil), h.Counts...)
		r.buckets = append([]float64(nil), h.Buckets...)
	}
	if s[4].Value.Kind() == metrics.KindUint64 {
		r.goroutines = s[4].Value.Uint64()
	}
	return r
}

// rtTotals sums the runtime's counters over the measured rounds only, so
// set-up and drain between rounds stay out of the per-layer figures.
type rtTotals struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
	sched           []uint64
	buckets         []float64
	goroutines      uint64 // at the end of the last round
}

func (t *rtTotals) add(a, b rtSnap) {
	t.allocBytes += b.allocBytes - a.allocBytes
	t.gcCPU += b.gcCPU - a.gcCPU
	t.totalCPU += b.totalCPU - a.totalCPU
	t.goroutines = b.goroutines
	if len(a.sched) != len(b.sched) {
		return
	}
	if t.sched == nil {
		t.sched, t.buckets = make([]uint64, len(b.sched)), b.buckets
	}
	for i := range b.sched {
		t.sched[i] += b.sched[i] - a.sched[i]
	}
}

// schedP99 returns the p99 scheduling latency (seconds) of the goroutines
// that became runnable during the rounds: the upper edge of the histogram
// bucket holding the 99th percentile.
func (t *rtTotals) schedP99() float64 {
	var total uint64
	for _, c := range t.sched {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range t.sched {
		seen += c
		if seen >= want {
			hi := t.buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = t.buckets[i]
			}
			return hi
		}
	}
	return 0
}
