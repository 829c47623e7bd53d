package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/sim"
)

// tiny returns the named workload shrunk to a smoke-test grid of at
// least 20 points, so every metric, run_cpu_ms_tail included, is defined.
func tiny(t *testing.T, name string) []*grid {
	t.Helper()
	gs := grids("..")
	g, err := findGrid(gs, name)
	if err != nil {
		t.Fatal(err)
	}
	switch name {
	case "contention":
		g.spec.Cores, g.seeds = []int{2, 4}, 2
	case "kernels":
		g.spec.Cores = []int{2}
	case "spec-sweep-traced":
		g.spec.Cores, g.seeds = []int{2}, 1
	}
	return []*grid{g}
}

func runTiny(t *testing.T, name string, trace bool, rec recorded, tamper func(*sim.Result, *bytes.Buffer)) *output {
	t.Helper()
	cfg := config{workload: name, seed: 3, trace: trace, outDir: t.TempDir(), tamper: tamper}
	out, err := run(tiny(t, name), cfg, rec, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func checkMetrics(t *testing.T, out *output, want []metricDef) {
	t.Helper()
	if len(out.Metrics) != len(want) {
		t.Errorf("got %d metrics, want %d", len(out.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := out.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("metric %s: unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each named metric is printed with its unit and that a
// clean run passes the correctness gate.
func TestSmoke(t *testing.T) {
	for _, name := range []string{"contention", "kernels", "spec-sweep-traced"} {
		t.Run(name, func(t *testing.T) {
			out := runTiny(t, name, false, nil, nil)
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("untraced: correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
			}
			checkMetrics(t, out, endToEnd)
			for _, d := range endToEnd {
				if v := out.Metrics[d.name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.name, v)
				}
			}
			out = runTiny(t, name, true, nil, nil)
			if !out.Correct || out.Failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d", out.Correct, out.Failed)
			}
			checkMetrics(t, out, perLayer())
		})
	}
}

// TestGateTripsOnResultMismatch corrupts every Result after Verify: the
// lockstep re-execution must catch it on an unrecorded seed, and the
// digest comparison on a recorded one.
func TestGateTripsOnResultMismatch(t *testing.T) {
	tamper := func(res *sim.Result, _ *bytes.Buffer) { res.Cycles++ }
	out := runTiny(t, "kernels", false, nil, tamper)
	if out.Correct || out.Failed == 0 {
		t.Errorf("lockstep gate: correct=%v failed=%d, want a failure", out.Correct, out.Failed)
	}

	path := filepath.Join(t.TempDir(), "digests.json")
	cfg := config{workload: "kernels", seed: 3}
	if err := recordDigests(tiny(t, "kernels"), cfg, path); err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec recorded
	if err := json.Unmarshal(js, &rec); err != nil {
		t.Fatal(err)
	}
	if _, ok := rec["kernels"][strconv.Itoa(3)]; !ok {
		t.Fatalf("recordDigests stored %v", rec)
	}
	if out := runTiny(t, "kernels", false, rec, nil); !out.Correct {
		t.Errorf("recorded digests: clean run failed (%d of %d)", out.Failed, out.Attempted)
	}
	out = runTiny(t, "kernels", false, rec, tamper)
	if out.Correct || out.Failed != out.Attempted {
		t.Errorf("digest gate: correct=%v failed=%d of %d, want all failed", out.Correct, out.Failed, out.Attempted)
	}
}

// TestGateTripsOnTruncatedTrace cuts each recorded stream short, mid
// record and by a whole record: both must fail every grid point.
func TestGateTripsOnTruncatedTrace(t *testing.T) {
	for _, cut := range []int{1, 72} {
		tamper := func(_ *sim.Result, buf *bytes.Buffer) {
			if buf.Len() > 8+cut {
				buf.Truncate(buf.Len() - cut)
			}
		}
		out := runTiny(t, "spec-sweep-traced", false, nil, tamper)
		if out.Correct || out.Failed < int64(len(tiny(t, "spec-sweep-traced")[0].spec.Workloads)) {
			t.Errorf("cut %d bytes: correct=%v failed=%d of %d", cut, out.Correct, out.Failed, out.Attempted)
		}
	}
}

// TestTailPercentile pins the rule behind run_cpu_ms_tail: the highest
// ladder percentile, up to the workload's, with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{19, 0, false}, {20, 50, true}, {40, 75, true}, {100, 90, true}, {199, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99, true}} {
		got, ok := tailPercentile(c.n, 99)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, record.json and the code in
// step: the same workloads, metric names and units, and a recorded
// prediction for every per-layer metric.
func TestBenchmarkJSON(t *testing.T) {
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &bj)
	gs := grids("..")
	if len(bj.Workloads) != len(gs) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(bj.Workloads), len(gs))
	}
	for i, g := range gs {
		if bj.Workloads[i].Name != g.name || bj.Workloads[i].Why != g.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q %q", i, bj.Workloads[i], g.name, g.why)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer())

	var rj struct {
		Predictions map[string]struct{ Moves, Workload string }
	}
	readJSON(t, "record.json", &rj)
	e2e := map[string]bool{"none": true}
	for _, d := range endToEnd {
		e2e[d.name] = true
	}
	wl := map[string]bool{"all": true}
	for _, g := range gs {
		wl[g.name] = true
	}
	for _, d := range perLayer() {
		p, ok := rj.Predictions[d.name]
		if !ok {
			t.Errorf("record.json: no prediction for %s", d.name)
			continue
		}
		if !e2e[p.Moves] || !wl[p.Workload] {
			t.Errorf("record.json: prediction for %s names %q on %q", d.name, p.Moves, p.Workload)
		}
	}
	if len(rj.Predictions) != len(perLayer()) {
		t.Errorf("record.json has %d predictions for %d per-layer metrics", len(rj.Predictions), len(perLayer()))
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	js, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(js, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
