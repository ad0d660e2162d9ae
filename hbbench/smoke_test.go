package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/heartbeat"
)

// TestSmoke runs a short untraced and traced run of every workload and
// checks what the full benchmark promises: every metric BENCHMARK.json
// names is emitted with its unit, the delivery checks pass, nothing is
// lost, and no goroutine or file descriptor (socket, shared-memory
// mapping) outlives a workload.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time workloads")
	}
	spec := readSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + map[bool]string{false: "/untraced", true: "/traced"}[traced]
			t.Run(name, func(t *testing.T) {
				g0, fd0 := runtime.NumGoroutine(), openFDs(t)
				cfg := newConfig(w.name, 7, 2, traced, t.TempDir())
				res, _, err := measure(w, cfg, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if err := settle(func() bool { return runtime.NumGoroutine() <= g0 && openFDs(t) <= fd0 }); err != nil {
					t.Errorf("leak after %s: goroutines %d → %d, open fds %d → %d",
						name, g0, runtime.NumGoroutine(), fd0, openFDs(t))
				}
			})
		}
	}
}

// TestRejectsBadFlags checks the command exits non-zero, printing no
// result, when it is not told what to run.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "relay-hot", "--trace", "2"},
		{"--workload", "relay-hot", "--seconds", "0"},
	} {
		if code := run(args); code == 0 {
			t.Errorf("run(%q) = 0, want non-zero", args)
		}
	}
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func openFDs(t *testing.T) int {
	t.Helper()
	es, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd:", err)
	}
	return len(es)
}

// settle polls cond for up to five seconds: goroutines that closed their
// last channel may still be returning.
func settle(cond func() bool) error {
	deadline := now().Add(5 * time.Second)
	for !cond() {
		if now().After(deadline) {
			return os.ErrDeadlineExceeded
		}
		<-heartbeat.After(nil, 10*time.Millisecond)
	}
	return nil
}
