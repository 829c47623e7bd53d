package lab

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/testutil"
	"repro/internal/workloads"
)

func TestMetricEval(t *testing.T) {
	env := map[string]float64{"cycles": 100, "commits": 8, "aborts": 2, "speedup": 2.5}
	cases := []struct {
		src  string
		want float64
	}{
		{"cycles", 100},
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"-aborts", -2},
		{"aborts / commits", 0.25},
		{"cycles - 2*commits - aborts", 82},
		{"1e2 + 0.5", 100.5},
		{"2e-1 * 10", 2},
		{"speedup", 2.5},
		{"-(commits - aborts) / 2", -3},
	}
	for _, tc := range cases {
		m, err := ParseMetric(tc.src)
		if err != nil {
			t.Errorf("ParseMetric(%q): %v", tc.src, err)
			continue
		}
		if got := m.Eval(env); !close(got, tc.want) {
			t.Errorf("Eval(%q) = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestMetricDivisionByZero(t *testing.T) {
	m, err := ParseMetric("cycles / aborts")
	if err != nil {
		t.Fatal(err)
	}
	v := m.Eval(map[string]float64{"cycles": 10, "aborts": 0})
	if !math.IsInf(v, 1) {
		t.Fatalf("10/0 = %v, want +Inf (flagged later as an anomaly)", v)
	}
}

func TestMetricParseErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{"", "unexpected end"},
		{"bogus_field", "unknown field"},
		{"(cycles", "missing ')'"},
		{"cycles +", "unexpected end"},
		{"cycles $ 2", `unexpected "$`},
		{"1..2", "bad number"},
		{"cycles aborts", "unexpected"},
	}
	for _, tc := range cases {
		_, err := ParseMetric(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("ParseMetric(%q) err = %v, want substring %q", tc.src, err, tc.wantSub)
		}
	}
}

func TestMetricUsesAndBaseline(t *testing.T) {
	m, err := ParseMetric("aborts / commits")
	if err != nil {
		t.Fatal(err)
	}
	if !m.Uses("aborts") || !m.Uses("commits") || m.Uses("cycles") {
		t.Error("Uses does not reflect the referenced identifiers")
	}
	if m.needsBaseline() {
		t.Error("aborts/commits should not require baselines")
	}
	for _, src := range []string{"speedup", "cycles - baseline_cycles"} {
		m, err := ParseMetric(src)
		if err != nil {
			t.Fatal(err)
		}
		if !m.needsBaseline() {
			t.Errorf("%q should require baselines", src)
		}
	}
}

func TestMetricVarsSortedAndParsable(t *testing.T) {
	vars := MetricVars()
	if !sort.StringsAreSorted(vars) {
		t.Fatalf("MetricVars not sorted: %v", vars)
	}
	if len(vars) != len(metricVarSet) {
		t.Fatalf("MetricVars lists %d fields, set has %d", len(vars), len(metricVarSet))
	}
	for _, v := range vars {
		if _, err := ParseMetric(v); err != nil {
			t.Errorf("advertised field %q does not parse: %v", v, err)
		}
	}
}

func TestRunEnv(t *testing.T) {
	res := &sim.Result{
		Cycles: 200,
		Cores:  2,
		PerCore: []sim.CoreStats{
			{Commits: 3, Aborts: 1, Nacks: 4, Instrs: 50},
			{Commits: 5, Aborts: 2, Nacks: 6, Instrs: 70},
		},
		Retcon: sim.RetconAgg{Txs: 8, SumCommitCycles: 40, StructureOverflowAborts: 1},
	}
	env := runEnv(res, 600, true)
	want := map[string]float64{
		"cycles": 200, "commits": 8, "aborts": 3, "nacks": 10, "instrs": 120,
		"retcon_txs": 8, "commit_cycles": 40, "so_aborts": 1,
		"baseline_cycles": 600, "speedup": 3,
	}
	for k, v := range want {
		if !close(env[k], v) {
			t.Errorf("env[%q] = %v, want %v", k, env[k], v)
		}
	}
	if _, ok := runEnv(res, 0, false)["speedup"]; ok {
		t.Error("speedup present without a baseline")
	}
}

// TestMetricEnvAgainstSimulator ties the metric environment to a real
// run: the env fields must equal the simulator's own totals, under
// either scheduler (testutil.CrossSched asserts the two agree first).
func TestMetricEnvAgainstSimulator(t *testing.T) {
	w, err := workloads.Lookup("counter")
	if err != nil {
		t.Fatal(err)
	}
	p := sim.DefaultParams()
	p.Cores = 2
	p.Mode = sim.RetCon
	out := testutil.CrossSched(t, "counter", p, func() *workloads.Bundle {
		return w.Build(2, 1)
	}, false, nil)

	env := runEnv(out.Res, 0, false)
	tot := out.Res.Totals()
	if env["cycles"] != float64(out.Res.Cycles) || env["commits"] != float64(tot.Commits) ||
		env["aborts"] != float64(tot.Aborts) || env["instrs"] != float64(tot.Instrs) {
		t.Fatalf("env diverges from the simulator's totals: %v vs %+v", env, tot)
	}
	m, err := ParseMetric("aborts / commits")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Eval(env), float64(tot.Aborts)/float64(tot.Commits); !close(got, want) {
		t.Fatalf("aborts/commits = %v, want %v", got, want)
	}
}

// FuzzParseMetric: the metric parser takes expressions from hypothesis
// files. Whatever the input, it must not panic; an accepted expression
// must evaluate to the same value every time on a fixed environment
// (NaN included) and reference only advertised fields that appear in its
// source; a rejected one must name the source in its error.
func FuzzParseMetric(f *testing.F) {
	for _, s := range []string{
		"cycles", "1 + 2 * 3", "-(commits - aborts) / 2", "2e-1 * 10", "1e+308 * 10",
		"speedup", "aborts / commits", "cycles / (aborts - aborts)", "(((instrs)))",
		"", "(cycles", "cycles +", "cycles $ 2", "1..2", "cycles aborts", "--.5e", "bogus_field",
	} {
		f.Add(s)
	}
	vars := MetricVars()
	env := make(map[string]float64, len(vars))
	for i, v := range vars {
		env[v] = float64(i) + 0.5
	}
	env["aborts"] = 0 // lets divisions reach ±Inf and NaN
	same := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ParseMetric(src)
		if err != nil {
			if m != nil {
				t.Fatalf("ParseMetric(%q) returned a metric with error %v", src, err)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("%q", src)) {
				t.Fatalf("ParseMetric(%q) error does not name the source: %v", src, err)
			}
			return
		}
		if m.String() != src {
			t.Fatalf("String() = %q, want %q", m.String(), src)
		}
		if a, b := m.Eval(env), m.Eval(env); !same(a, b) {
			t.Fatalf("Eval(%q) not deterministic: %v then %v", src, a, b)
		}
		for _, v := range vars {
			if m.Uses(v) && !strings.Contains(src, v) {
				t.Fatalf("%q reports using %q, which it does not mention", src, v)
			}
		}
		if m.Uses("bogus") {
			t.Fatalf("%q reports using an unadvertised field", src)
		}
	})
}
