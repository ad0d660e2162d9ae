// Command hbbench is the repository's end-to-end benchmark: three seeded
// workloads driven in real time from one process through the heartbeat
// stack (Beat → SP ring/aggregator → shm/TCP → relay merge → rollup →
// balance), each verified for delivery correctness on every run.
//
//	bash hbbench/run.sh --workload relay-hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// alternates untraced and traced rounds (timing shims around every seam
// handed to the system) and prints the per-layer metrics. The last
// line of standard output is the result object; the line before it stamps
// the host and the run configuration. See README.md for the metric
// dictionary.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// rounds is how many times each run wires, warms and measures a fresh
// pipeline, for seconds/rounds each. setup_s is the median of the rounds'
// set-up times; the other figures pool the rounds' windows, so a pipeline
// that happened to land badly on the host's cores is one round of ten.
const rounds = 10

// scratchDir holds the shared-memory regions, relative to the checkout
// root the benchmark runs from; run.sh builds into the same directory.
const scratchDir = ".bench_build"

// drainTimeout bounds how long a finished round may take to deliver what
// it published; exceeding it is a correctness failure, not a slow number.
const drainTimeout = 30 * time.Second

type config struct {
	workload string
	seed     int64
	seconds  int
	round    time.Duration // measured time of one round
	nproc    int
	dir      string // scratch directory inside the checkout (shm regions)
}

func newConfig(name string, seed int64, seconds int, traced bool, dir string) *config {
	perRun := rounds
	if traced {
		perRun *= 2 // untraced and traced rounds alternate within the run
	}
	return &config{
		workload: name, seed: seed, seconds: seconds,
		round: time.Duration(seconds) * time.Second / time.Duration(perRun),
		nproc: runtime.NumCPU(), dir: dir,
	}
}

// pipeline is one wired, warmed workload instance.
type pipeline interface {
	// start begins the measured load.
	start()
	// finish stops the load, waits until every hop has delivered what was
	// published, and checks the delivery contract.
	finish() (tally, error)
	// close releases everything; every goroutine it started has exited.
	close()
}

// tally is what a finished pipeline reports besides the phase samples.
type tally struct {
	published, delivered uint64
	// mergedRps is the relays' merged-head growth per second, mean over
	// hops; 0 without relays.
	mergedRps float64
	// counts holds per-layer counters only the workload can read (miss,
	// shed and reconnect counts, balance swaps).
	counts map[string]float64
}

type workload struct {
	name string
	// ageStride is the age sampling stride, sized to the workload's
	// delivery rate: about 6k samples per second.
	ageStride uint64
	setup     func(cfg *config, tr *tracer, ph *phase) (pipeline, error)
}

var workloads = []workload{
	{"beat-local", 512, setupBeatLocal},
	{"relay-hot", 32, setupRelayHot},
	{"fleet-rollup", 32, setupFleetRollup},
}

// outcome is one measured run: every round's samples and counters.
type outcome struct {
	ph        *phase
	tr        *tracer
	setupS    []float64
	heapMB    []float64
	mergedRps []float64
	counts    map[string]float64 // per-layer counters summed over rounds
	rt        rtTotals
}

func newOutcome(cfg *config, w workload, traced bool) *outcome {
	ph := newPhase(rounds, cfg.round, w.ageStride)
	return &outcome{ph: ph, tr: &tracer{ph: ph, traced: traced}, counts: map[string]float64{}}
}

// round wires a fresh pipeline, measures it for one round and verifies
// that it delivered everything it published.
func (o *outcome) round(w workload, cfg *config) (tally, error) {
	runtime.GC()
	t0 := now()
	p, err := w.setup(cfg, o.tr, o.ph)
	if err != nil {
		return tally{}, fmt.Errorf("set-up: %w", err)
	}
	defer p.close()
	o.setupS = append(o.setupS, now().Sub(t0).Seconds())

	rt0 := readRuntime()
	o.ph.begin()
	p.start()
	o.ph.end()
	o.rt.add(rt0, readRuntime())
	o.heapMB = append(o.heapMB, liveHeapMB())
	t, err := p.finish()
	o.mergedRps = append(o.mergedRps, t.mergedRps)
	for k, v := range t.counts {
		o.counts[k] += v
	}
	if err == nil && t.published != t.delivered {
		err = fmt.Errorf("published %d, delivered %d", t.published, t.delivered)
	}
	return t, err
}

// endToEnd are the untraced run's metrics, every one on every workload.
// The rates, CPU and ages are medians over the quiet windows; the
// producer costs are quantiles of the quiet windows' pooled samples.
func endToEnd(o *outcome) map[string]metric {
	ws := quiet(o.ph.windows())
	return map[string]metric{
		"setup_s":        {median(o.setupS), "s"},
		"delivered_rps":  {over(ws, rpsOf), "1/s"},
		"age_p50_ms":     {over(ws, ageAt(0.50)), "ms"},
		"age_p95_ms":     {over(ws, ageAt(0.95)), "ms"},
		"cpu_ns_per_rec": {over(ws, cpuOf), "ns"},
		"heap_live_mb":   {median(o.heapMB), "MiB"},
		"beat_ns":        {quantile(costs(ws), 0.50), "ns"},
		"beat_p95_ns":    {quantile(costs(ws), 0.95), "ns"},
	}
}

// perLayer are the traced run's metrics; base is the untraced run of the
// same invocation, the reference for the trace overhead.
func perLayer(o, base *outcome) map[string]metric {
	tr := o.tr
	delivered := float64(o.ph.delivered.Load())
	ws := quiet(o.ph.windows())
	cpu, baseCPU := over(ws, cpuOf), over(quiet(base.ph.windows()), cpuOf)
	m := map[string]metric{
		"heartbeat.batch_recs":         {tr.heartbeat.batchRecs(), "count"},
		"heartbeat.next_wait_us":       {tr.heartbeat.waitUs(), "us"},
		"heartbeat.flush_us":           {perUnit(tr.flushNs.Load(), tr.flushes.Load()) / 1e3, "us"},
		"heartbeat.missed":             {float64(tr.heartbeat.missed.Load()), "count"},
		"hbshm.write_ns":               {perUnit(tr.writeNs.Load(), tr.writes.Load()), "ns"},
		"hbshm.next_wait_us":           {tr.shm.waitUs(), "us"},
		"hbshm.batch_recs":             {tr.shm.batchRecs(), "count"},
		"hbnet.server_self_ns_per_rec": {tr.server.selfNsPerRec(), "ns"},
		"hbnet.server_batch_recs":      {tr.server.batchRecs(), "count"},
		"hbnet.client_next_wait_us":    {tr.clientNet.waitUs(), "us"},
		"hbnet.client_batch_recs":      {tr.clientNet.batchRecs(), "count"},
		"hbnet.client_missed":          {o.counts["hbnet.client_missed"], "count"},
		"hbnet.reconnects":             {o.counts["hbnet.reconnects"], "count"},
		"relay.pump_self_ns_per_rec":   {tr.pump.selfNsPerRec(), "ns"},
		"relay.pump_self_us_per_batch": {tr.pump.selfUsPerBatch(), "us"},
		"relay.upstream_wait_us":       {tr.pump.waitUs(), "us"},
		"relay.batch_recs":             {tr.pump.batchRecs(), "count"},
		"relay.merged_rps":             {median(o.mergedRps), "1/s"},
		"relay.shed":                   {o.counts["relay.shed"], "count"},
		"relay.rollup_upstream_missed": {o.counts["relay.rollup_upstream_missed"], "count"},
		"observer.rollup_wait_us":      {tr.rollupObs.waitUs(), "us"},
		"observer.rollups_per_batch":   {tr.rollupObs.batchRecs(), "count"},
		"observer.rollup_emit_lag_ms":  {perUnit(tr.emitLagNs.Load(), tr.rollupObs.recs.Load()) / 1e6, "ms"},
		"balance.absorb_us":            {perUnit(tr.absorbNs.Load(), tr.absorbs.Load()) / 1e3, "us"},
		"balance.swaps":                {o.counts["balance.swaps"], "count"},
		"balance.pick_ns":              {perUnit(tr.pickNs.Load(), tr.picks.Load()), "ns"},
		"gen.late_p99_ms":              {quantile(o.ph.late, 0.99) / 1e6, "ms"},
		"tail.age_p99_ms":              {over(ws, ageAt(0.99)), "ms"},
		"tail.beat_p99_ns":             {quantile(costs(ws), 0.99), "ns"},
		"runtime.alloc_bytes_per_rec":  {safeDiv(float64(o.rt.allocBytes), delivered), "B"},
		"runtime.gc_cpu_frac":          {safeDiv(o.rt.gcCPU, o.rt.totalCPU), "frac"},
		"runtime.sched_lat_p99_us":     {o.rt.schedP99() * 1e6, "us"},
		"runtime.goroutines":           {float64(o.rt.goroutines), "count"},
		"trace.overhead_frac":          {safeDiv(cpu, baseCPU) - 1, "frac"},
		"trace.attributed_frac":        {safeDiv(attributedNs(tr)/delivered, baseCPU), "frac"},
	}
	return m
}

// attributedNs sums the self time the seams can see: producer-side beat
// blocks or generator steps, heartbeat flushes, relay pumps, server
// pushes and balance absorbs. Sink writes are inside beat calls and
// waits are not work, so neither is added.
func attributedNs(tr *tracer) float64 {
	return float64(tr.genNs.Load() + tr.flushNs.Load() + tr.pump.selfNs.Load() +
		tr.server.selfNs.Load() + tr.rollupSrv.selfNs.Load() + tr.rollupUp.selfNs.Load() + tr.absorbNs.Load())
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("hbbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: beat-local, relay-hot or fleet-rollup")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 alternates untraced and traced rounds and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "hbbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", names())
		return 2
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "hbbench:", err)
		return 1
	}
	cfg := newConfig(w.name, *seed, *seconds, *trace == 1, scratchDir)
	res, stamp, err := measure(*w, cfg, *trace == 1)
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	enc := json.NewEncoder(out)
	enc.Encode(stamp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbbench:", err)
		res.Correct = false
		res.Metrics = map[string]metric{}
		if res.Failed == 0 {
			res.Failed = 1
		}
		if res.Attempted < res.Failed {
			res.Attempted = res.Failed
		}
		enc.Encode(res)
		return 1
	}
	enc.Encode(res)
	return 0
}

func names() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// measure runs the workload's rounds and assembles the result and the
// stamp line.
func measure(w workload, cfg *config, traced bool) (result, map[string]any, error) {
	stamp := map[string]any{"host": hostStamp(), "config": runStamp(w, cfg, traced)}
	steal0, total0 := cpuTicks()
	defer func() {
		if steal1, total1 := cpuTicks(); total1 > total0 {
			stamp["host"].(map[string]any)["steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
		}
	}()
	var res result
	// A traced run alternates untraced and traced rounds, so host drift
	// during the run lands on both sides of trace.overhead_frac alike.
	base, o := newOutcome(cfg, w, false), newOutcome(cfg, w, true)
	outs := []*outcome{base}
	if traced {
		outs = append(outs, o)
	}
	for r := 0; r < rounds; r++ {
		for _, out := range outs {
			t, err := out.round(w, cfg)
			res.Attempted += t.published
			if t.published > t.delivered {
				res.Failed += t.published - t.delivered
			}
			if err != nil {
				return res, stamp, fmt.Errorf("%s round %d: %w", w.name, r+1, err)
			}
		}
	}
	ws := base.ph.windows()
	stamp["samples"] = map[string]int{
		"age": count(base.ph.ages), "beat": count(base.ph.costs),
		"windows": len(ws), "quiet_windows": len(quiet(ws)),
	}
	res.Correct, res.Metrics = true, endToEnd(base)
	if traced {
		res.Metrics = perLayer(o, base)
	}
	return res, stamp, nil
}

func runStamp(w workload, cfg *config, traced bool) map[string]any {
	s := map[string]any{
		"age_stride":     w.ageStride,
		"workload":       cfg.workload,
		"seed":           cfg.seed,
		"seconds":        cfg.seconds,
		"traced":         traced,
		"round_s":        cfg.round.Seconds(),
		"rounds":         rounds,
		"gen_goroutines": 1,
		"connections":    0,
	}
	switch cfg.workload {
	case "beat-local":
		s["gen_goroutines"] = cfg.nproc
		s["offered"] = fmt.Sprintf("closed loop, %d producers, blocks of %d-%d beats", cfg.nproc, beatBlockMin, beatBlockMax)
	case "relay-hot":
		s["connections"] = 2
		s["offered_rps"] = relayHotRate
		s["offered"] = fmt.Sprintf("open loop, %d rec/s over %d producers, %v ticks", relayHotRate, relayHotProducers, relayHotTick)
	case "fleet-rollup":
		s["connections"] = 2
		s["offered_rps"] = float64(fleetProducers) / fleetBeatEvery.Seconds()
		s["offered"] = fmt.Sprintf("open loop, %d producers over %d apps, one beat per %v each", fleetProducers, fleetApps, fleetBeatEvery)
	}
	return s
}

func hostStamp() map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"kernel":     kernel(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

var errClosed = errors.New("pipeline closed")
