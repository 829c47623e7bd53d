// Command perfbench is the repository's benchmark: it runs one named
// workload grid through the simulator on a single worker, back to back
// for a fixed time, checks every output, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer ones) as one JSON line.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload contention --seed 1 --seconds 30 --trace 0
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//	contention         counter, python, python_opt (resized); eager, lazy-vb, RetCon; 32/64 cores
//	kernels            ten STAMP-style kernels; eager and RetCon; 16/32/64 cores
//	spec-sweep-traced  seven examples/workloads specs; all modes; 4/8/16 cores; every run recorded
//
// A run first sets up several times (workload and spec resolution, grid
// expansion, first machine construction) and reports the median as
// setup_s. It then executes the grid pass after pass until --seconds have
// elapsed; every pass runs the same grid, each grid point starting when
// the previous one has verified. Host times are CPU times (see cpu.go).
// With --trace 1, untraced and traced passes alternate: traced passes
// record a span around every call into wspec, workloads, sim, sweep and
// telemetry and take a CPU profile, and a final untimed pass counts
// allocations. Spans and profiles are written under .bench_build/trace.
//
// Correctness: every grid point runs its workload's verifier, every
// recorded trace must decode to the stream the recorder flushed, every
// pass must reproduce the first pass's Results exactly, and the first
// pass's digests must match the ones recorded in digests.json for this
// seed (regenerate them with --record-digests perfbench/digests.json). On
// a seed with no recorded digest, a seed-derived sample of grid points is
// re-executed under the lockstep scheduler, outside the timed region, and
// must give deeply equal Results and event streams. Any failure counts the
// point as failed, and the run reports correct=false.
//
// Host-side timings go only to this program's output; they never enter a
// sim.Result or an event stream.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/sim"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units, with bounds; the self-tests keep the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees, measured with
// spans off.
var endToEnd = []metricDef{
	{"setup_s", "s"},                // median CPU time of set-up over setupReps repetitions
	{"pass_cpu_s", "s"},             // median CPU time of one grid pass
	{"sim_cycles_per_cpu_s", "1/s"}, // simulated core-cycles of a pass / pass_cpu_s
	{"run_cpu_ms_p50", "ms"},        // median grid-point CPU time, Build through Verify (+ decode)
	{"run_cpu_ms_tail", "ms"},       // highest percentile of those with >= 10 samples beyond it
}

// spanMetrics are the per-layer span self times, in ms per pass.
var spanMetrics = []struct{ metric, span string }{
	{"wspec.resolve_ms", ""}, // from set-up, not from a pass
	{"workloads.build_ms", "workloads.build"},
	{"sim.reset_ms", "sim.reset"},
	{"sim.run_ms", "sim.run"},
	{"workloads.verify_ms", "workloads.verify"},
	{"telemetry.sink_ms", "telemetry.sink"},
	{"telemetry.decode_ms", "telemetry.decode"},
	{"sweep.dispatch_ms", "sweep.dispatch"},
}

// perLayer lists every per-layer metric of a traced run, in output order.
func perLayer() []metricDef {
	var out []metricDef
	for _, s := range spanMetrics {
		out = append(out, metricDef{s.metric, "ms"})
	}
	out = append(out,
		metricDef{"sim.instrs", "count"},
		metricDef{"sim.cycles", "count"},
		metricDef{"htm.commits", "count"},
		metricDef{"htm.aborts", "count"},
		metricDef{"htm.commit_ratio", "ratio"},
		metricDef{"coherence.nacks", "count"},
		metricDef{"coherence.nacks_per_instr", "ratio"},
		metricDef{"coherence.nack_wait_mean_cycles", "cycles"},
		metricDef{"htm.abort_wasted_cycles", "cycles"},
		metricDef{"core.repairs", "count"},
		metricDef{"core.repair_cycle_share", "share"},
		metricDef{"sched.event_cycle_share", "share"},
		metricDef{"sched.handoffs", "count"},
		metricDef{"telemetry.events", "count"},
		metricDef{"telemetry.bytes", "bytes"},
		metricDef{"sim.allocs_per_run", "count"},
		metricDef{"workloads.build_allocs_per_run", "count"},
		// Peak resident memory of set-up and the timed passes. It is not an
		// end-to-end metric because it moves in steps of whole workload
		// images with garbage-collection timing.
		metricDef{"max_rss_mb", "MB"},
	)
	for _, l := range hostLayers {
		out = append(out, metricDef{l + ".host_share", "share"})
	}
	return append(out, metricDef{"tracing_overhead_ratio", "ratio"})
}

const (
	traceDir      = ".bench_build/trace" // where a traced run writes its spans and CPU profiles
	setupReps     = 15                   // set-up repetitions behind setup_s
	lockstepPicks = 2                    // grid points re-executed under lockstep on an unrecorded seed
)

//go:embed digests.json
var recordedJSON []byte

// recorded maps workload -> seed -> the digests of that seed's pass.
type recorded map[string]map[string]digests

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // where a traced run writes its spans and profiles
	// tamper, when set, edits each run's Result and recorded stream
	// before the correctness gate sees them (self-tests only).
	tamper func(res *sim.Result, trace *bytes.Buffer)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	var record string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: contention, kernels or spec-sweep-traced")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the grid's input seeds derive from")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "how long the timed passes run")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&record, "record-digests", "", "run one pass and store its digests for --seed in this file instead of measuring")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.outDir = traceDir
	// One P: the simulation runs on one worker anyway, and on a 2-vCPU
	// virtual machine a garbage collector running beside it on the second
	// CPU widened the run-to-run spread of the measured CPU times.
	runtime.GOMAXPROCS(1)
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	var rec recorded
	if err := json.Unmarshal(recordedJSON, &rec); err != nil {
		fail(fmt.Errorf("digests.json: %w", err))
	}
	gs := grids(".")
	if record != "" {
		if err := recordDigests(gs, cfg, record); err != nil {
			fail(err)
		}
		return
	}
	out, err := run(gs, cfg, rec, os.Stderr)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run measures one workload and returns its result line. log receives
// the human-readable report.
func run(gs []*grid, cfg config, rec recorded, log io.Writer) (*output, error) {
	g, err := findGrid(gs, cfg.workload)
	if err != nil {
		return nil, err
	}
	b := &bench{g: g, seed: cfg.seed, spans: newTracer(), tamper: cfg.tamper}
	setupT, resolveT, err := b.setup(setupReps)
	if err != nil {
		return nil, err
	}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	prof := &profiler{}
	var passes []pass
	start := time.Now()
	for i := 0; ; i++ {
		p, err := b.runPass(cfg.trace && i%2 == 1, prof)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		if time.Since(start) >= budget && (!cfg.trace || i%2 == 1) {
			break
		}
	}

	// Peak memory of set-up and the timed passes, before the checks below.
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}

	// With --trace 1, allocation counts come from one more, untimed pass.
	var allocPass pass
	checked := passes
	if cfg.trace {
		b.memStats = true
		allocPass, err = b.runPass(false, prof)
		b.memStats = false
		if err != nil {
			return nil, err
		}
		checked = append(slices.Clone(passes), allocPass)
	}
	attempted, failed := gate(b, checked, rec, log)

	var untraced, traced []pass
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	fmt.Fprintf(log, "%s seed %d: %d grid points per pass, %d untraced and %d traced passes in %.1f s\n",
		g.name, cfg.seed, len(b.runs), len(untraced), len(traced), time.Since(start).Seconds())

	fmt.Fprintf(log, "pass wall/CPU (s):")
	for _, p := range passes {
		fmt.Fprintf(log, " %.3f/%.3f", p.wall.Seconds(), p.cpu.Seconds())
		if p.traced {
			fmt.Fprint(log, "T")
		}
	}
	fmt.Fprintf(log, "\nsimulated core-cycles per pass: %d\n", coreCycles(passes[0].points))

	m := map[string]metricValue{}
	put := func(name, unit string, v float64) { m[name] = metricValue{v, unit} }
	if !cfg.trace {
		cpu := medianDur(cpus(untraced))
		put("setup_s", "s", medianDur(setupT).Seconds())
		put("pass_cpu_s", "s", cpu.Seconds())
		put("sim_cycles_per_cpu_s", "1/s", float64(coreCycles(passes[0].points))/cpu.Seconds())
		var run []float64
		for _, p := range untraced {
			for _, pt := range p.points {
				run = append(run, ms(pt.cpu))
			}
		}
		put("run_cpu_ms_p50", "ms", median(run))
		if pct, ok := tailPercentile(len(run), g.tail); ok {
			put("run_cpu_ms_tail", "ms", quantile(run, pct/100))
			fmt.Fprintf(log, "run_cpu_ms_tail is p%g of %d grid-point CPU times\n", pct, len(run))
		}
	} else {
		put("max_rss_mb", "MB", float64(ru.Maxrss)/1024)
		layerMetrics(put, resolveT, passes[0].points, allocPass.points, untraced, traced)
		if err := writeTrace(cfg, b, traced); err != nil {
			return nil, err
		}
	}
	report(log, m)
	return &output{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// gate checks every grid point of every pass: no error, and a Result and
// event stream identical to pass 0's. Pass 0's digests must then match
// the ones recorded for the seed; without a recorded digest, a sample of
// grid points is re-executed under lockstep. It returns the attempted
// and failed counts.
func gate(b *bench, passes []pass, rec recorded, log io.Writer) (attempted, failed int64) {
	var problems []error
	ref, refEach := passDigests(b.g, passes[0].points)
	for pi, p := range passes {
		_, each := passDigests(b.g, p.points)
		for i := range p.points {
			attempted++
			switch {
			case p.points[i].err != nil:
				failed++
				problems = append(problems, fmt.Errorf("pass %d %s: %w", pi, describe(b.runs[i]), p.points[i].err))
			case each[i] != refEach[i] || p.points[i].evDigest != passes[0].points[i].evDigest:
				failed++
				problems = append(problems, fmt.Errorf("pass %d %s: output differs from pass 0", pi, describe(b.runs[i])))
			}
		}
	}
	if want, ok := rec[b.g.name][strconv.FormatInt(b.seed, 10)]; ok {
		if want != ref {
			failed = attempted
			problems = append(problems, fmt.Errorf("digests %+v differ from the recorded %+v", ref, want))
		} else {
			fmt.Fprintf(log, "correctness: digests match the recorded ones for seed %d\n", b.seed)
		}
	} else {
		sample := sampleIndices(b.seed, len(b.runs), lockstepPicks)
		attempted += int64(len(sample))
		errs := b.lockstepCheck(passes[0].points, sample)
		failed += int64(len(errs))
		problems = append(problems, errs...)
		fmt.Fprintf(log, "correctness: no recorded digest for seed %d; %d grid points re-executed under lockstep\n", b.seed, len(sample))
	}
	for i, e := range problems {
		if i == 5 {
			fmt.Fprintf(log, "... %d more failures\n", len(problems)-i)
			break
		}
		fmt.Fprintln(log, "FAIL:", e)
	}
	return attempted, failed
}

// layerMetrics fills the per-layer metrics of a traced run.
func layerMetrics(put func(string, string, float64), resolveT []time.Duration, pts, allocPts []point, untraced, traced []pass) {
	for _, s := range spanMetrics {
		if s.span == "" {
			put(s.metric, "ms", ms(medianDur(resolveT)))
			continue
		}
		var per []float64
		for _, p := range traced {
			per = append(per, ms(p.self[s.span]))
		}
		put(s.metric, "ms", median(per))
	}
	var instrs, cycles, commits, aborts, nacks, waitSum, waitN, wasted, repairs, repairCyc, coreCyc int64
	var eventCyc, denseCyc, handoffs, events, bytes int64
	for _, pt := range pts {
		if pt.res == nil {
			continue
		}
		t := pt.res.Totals()
		instrs += t.Instrs
		cycles += pt.res.Cycles
		commits += t.Commits
		aborts += t.Aborts
		nacks += t.Nacks
		mt := &pt.res.Metrics
		waitSum += mt.NackWait.Sum
		waitN += mt.NackWait.Count
		wasted += mt.AbortWaste.Sum
		repairs += mt.RepairLat.Count
		repairCyc += mt.RepairLat.Sum
		coreCyc += pt.res.Cycles * int64(pt.res.Cores)
		eventCyc += pt.sched.EventCycles
		denseCyc += pt.sched.DenseCycles
		handoffs += pt.sched.Handoffs
		events += pt.events
		bytes += pt.bytes
	}
	put("sim.instrs", "count", float64(instrs))
	put("sim.cycles", "count", float64(cycles))
	put("htm.commits", "count", float64(commits))
	put("htm.aborts", "count", float64(aborts))
	put("htm.commit_ratio", "ratio", ratio(commits, commits+aborts))
	put("coherence.nacks", "count", float64(nacks))
	put("coherence.nacks_per_instr", "ratio", ratio(nacks, instrs))
	put("coherence.nack_wait_mean_cycles", "cycles", ratio(waitSum, waitN))
	put("htm.abort_wasted_cycles", "cycles", float64(wasted))
	put("core.repairs", "count", float64(repairs))
	put("core.repair_cycle_share", "share", ratio(repairCyc, coreCyc))
	put("sched.event_cycle_share", "share", ratio(eventCyc, eventCyc+denseCyc))
	put("sched.handoffs", "count", float64(handoffs))
	put("telemetry.events", "count", float64(events))
	put("telemetry.bytes", "bytes", float64(bytes))
	var runA, buildA uint64
	for _, pt := range allocPts {
		runA += pt.runAllocs
		buildA += pt.buildAllocs
	}
	put("sim.allocs_per_run", "count", float64(runA)/float64(len(allocPts)))
	put("workloads.build_allocs_per_run", "count", float64(buildA)/float64(len(allocPts)))

	samples := map[string]int64{}
	for _, p := range traced {
		if err := foldProfile(p.prof, samples); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: CPU profile unreadable:", err)
		}
	}
	var total int64
	for _, v := range samples {
		total += v
	}
	for _, l := range hostLayers {
		put(l+".host_share", "share", ratio(samples[l], total))
	}
	put("tracing_overhead_ratio", "ratio", float64(medianDur(cpus(traced)))/float64(medianDur(cpus(untraced))))
}

// writeTrace stores a traced run's spans and CPU profiles.
func writeTrace(cfg config, b *bench, traced []pass) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := b.spans.write(base + ".spans.jsonl"); err != nil {
		return err
	}
	for i, p := range traced {
		if err := os.WriteFile(fmt.Sprintf("%s.pass%d.cpu.pprof", base, i), p.prof, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func report(log io.Writer, m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "  %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// recordDigests runs one pass of the workload for cfg.seed, checks it
// against lockstep on every grid point, and stores its digests in path.
func recordDigests(gs []*grid, cfg config, path string) error {
	g, err := findGrid(gs, cfg.workload)
	if err != nil {
		return err
	}
	rec := recorded{}
	if js, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(js, &rec); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	b := &bench{g: g, seed: cfg.seed, spans: newTracer()}
	if _, _, err := b.setup(1); err != nil {
		return err
	}
	p, err := b.runPass(false, nil)
	if err != nil {
		return err
	}
	for i := range p.points {
		if p.points[i].err != nil {
			return fmt.Errorf("%s: %w", describe(b.runs[i]), p.points[i].err)
		}
	}
	all := make([]int, len(b.runs))
	for i := range all {
		all[i] = i
	}
	if errs := b.lockstepCheck(p.points, all); len(errs) > 0 {
		return errs[0]
	}
	d, _ := passDigests(g, p.points)
	if rec[g.name] == nil {
		rec[g.name] = map[string]digests{}
	}
	rec[g.name][strconv.FormatInt(cfg.seed, 10)] = d
	js, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

// profiler takes one CPU profile per traced pass into memory.
type profiler struct{ buf bytes.Buffer }

func (p *profiler) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

func (p *profiler) stop() []byte {
	pprof.StopCPUProfile()
	return bytes.Clone(p.buf.Bytes())
}

// tailLadder are the percentiles run_cpu_ms_tail may report.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile is the highest ladder percentile, at most limit, that
// leaves at least ten of n samples beyond it. The limit is the workload's
// tail percentile: a typical run has samples to spare for it, so runs of
// one workload all report the same percentile, and only a run too short
// for it falls back to a lower one.
func tailPercentile(n int, limit float64) (float64, bool) {
	for _, p := range tailLadder {
		if p <= limit && n-int(math.Ceil(p/100*float64(n))) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func cpus(ps []pass) []time.Duration {
	out := make([]time.Duration, len(ps))
	for i, p := range ps {
		out[i] = p.cpu
	}
	return out
}

func coreCycles(pts []point) int64 {
	var n int64
	for _, pt := range pts {
		if pt.res != nil {
			n += pt.res.Cycles * int64(pt.res.Cores)
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
