package main

import (
	"fmt"
	"path/filepath"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
	"repro/internal/wspec"
)

// grid is one benchmark workload: the sweep it runs as one pass, how the
// pass's workload names resolve, and how many input seeds a pass covers.
type grid struct {
	name string
	// why is the one-line rationale recorded in BENCHMARK.json.
	why string
	// spec is the sweep expanded once per pass; its Seeds axis is
	// replaced by seeds derived from the benchmark's --seed.
	spec sweep.Spec
	// seeds is the number of input seeds each pass covers.
	seeds int
	// tail is the percentile run_cpu_ms_tail reports: the highest one
	// with at least ten grid points beyond it in a typical run.
	tail float64
	// resolve registers the pass's workloads in the default registry and
	// returns them by name. It is the "workload and spec resolution" step
	// of set-up, timed as the wspec.resolve span.
	resolve func() (map[string]workloads.Workload, error)
	// recorded attaches a telemetry recorder to every run and decodes its
	// stream, as a traced sweep does.
	recorded bool
}

// specDir holds the declarative workload specs of spec-sweep-traced,
// relative to the repository root the benchmark runs from.
const specDir = "examples/workloads"

var specFiles = []string{
	"aux-counter.json", "barrier-phased.json", "false-sharing.json", "lane-log.json",
	"prodcons-queue.json", "reader-probe.json", "zipf-hotset.json",
}

var kernelNames = []string{
	"genome", "genome-sz", "intruder_opt", "intruder_opt-sz", "kmeans",
	"labyrinth", "ssca2", "vacation_opt", "vacation_opt-sz", "yada",
}

// renamed registers a resized builtin under its own name, so it never
// shadows the builtin's default configuration in the registry.
type renamed struct {
	workloads.Workload
	name string
}

func (r renamed) Name() string { return r.name }

// contentionWorkloads are counter, python and python_opt shrunk so that a
// pass stays a few seconds long at 32-64 cores: fewer transactions per
// thread, with each transaction's conflict structure unchanged.
func contentionWorkloads() []workloads.Workload {
	counter := workloads.DefaultCounter()
	counter.OpsPerThread = 8
	py := workloads.DefaultPython()
	py.BatchesPerCPU = 2
	pyOpt := workloads.DefaultPythonOpt()
	pyOpt.BatchesPerCPU = 2
	return []workloads.Workload{
		renamed{counter, "counter-ops8"},
		renamed{py, "python-b2"},
		renamed{pyOpt, "python_opt-b2"},
	}
}

func registerAll(ws []workloads.Workload) map[string]workloads.Workload {
	out := make(map[string]workloads.Workload, len(ws))
	for _, w := range ws {
		workloads.Register(func() workloads.Workload { return w })
		out[w.Name()] = w
	}
	return out
}

func lookupAll(names []string) (map[string]workloads.Workload, error) {
	out := make(map[string]workloads.Workload, len(names))
	for _, n := range names {
		w, err := workloads.Lookup(n)
		if err != nil {
			return nil, err
		}
		out[n] = w
	}
	return out, nil
}

// compileSpecs loads and compiles every spec file afresh (wspec.Resolve
// would return the already-registered copy) and registers it under its
// spec: reference, which is the name the sweep expansion resolves.
func compileSpecs(dir string, files []string) (map[string]workloads.Workload, error) {
	out := make(map[string]workloads.Workload, len(files))
	for _, f := range files {
		ref := wspec.RefPrefix + filepath.Join(dir, f)
		s, err := wspec.LoadFile(filepath.Join(dir, f))
		if err != nil {
			return nil, err
		}
		w, err := s.Compile(ref, nil)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", f, err)
		}
		workloads.Register(func() workloads.Workload { return w })
		out[ref] = w
	}
	return out, nil
}

func refs(dir string, files []string) []string {
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = wspec.RefPrefix + filepath.Join(dir, f)
	}
	return out
}

// grids returns the benchmark's workloads at full size; root is the
// repository root, which holds the spec files.
func grids(root string) []*grid {
	dir := filepath.Join(root, specDir)
	cw := contentionWorkloads()
	cnames := make([]string, len(cw))
	for i, w := range cw {
		cnames[i] = w.Name()
	}
	return []*grid{
		{
			name:  "contention",
			why:   "counter/python/python_opt, all modes at 32-64 cores: NACK polling and abort churn dominate host time",
			spec:  sweep.Spec{Name: "contention", Workloads: cnames, Modes: []string{"all"}, Cores: []int{32, 64}},
			seeds: 1,
			tail:  90,
			resolve: func() (map[string]workloads.Workload, error) {
				return registerAll(contentionWorkloads()), nil
			},
		},
		{
			name:  "kernels",
			why:   "ten STAMP-style kernels, eager and RetCon at 16-64 cores: busy and repair work, few NACKs",
			spec:  sweep.Spec{Name: "kernels", Workloads: kernelNames, Modes: []string{"eager", "retcon"}, Cores: []int{16, 32, 64}},
			seeds: 1,
			tail:  95,
			resolve: func() (map[string]workloads.Workload, error) {
				return lookupAll(kernelNames)
			},
		},
		{
			name:  "spec-sweep-traced",
			why:   "seven wspec specs, all modes at 4-16 cores, each run recorded and decoded: set-up, reset and tracing weigh most",
			spec:  sweep.Spec{Name: "spec-sweep-traced", Workloads: refs(dir, specFiles), Modes: []string{"all"}, Cores: []int{4, 8, 16}},
			seeds: 2,
			tail:  99,
			resolve: func() (map[string]workloads.Workload, error) {
				return compileSpecs(dir, specFiles)
			},
			recorded: true,
		},
	}
}

func findGrid(gs []*grid, name string) (*grid, error) {
	for _, g := range gs {
		if g.name == name {
			return g, nil
		}
	}
	names := make([]string, len(gs))
	for i, g := range gs {
		names[i] = g.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// gridSeeds derives a pass's input seeds from the benchmark seed.
func gridSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed*100 + int64(i) + 1
	}
	return out
}

// expand builds the pass's run list over the default machine.
func (g *grid) expand(seed int64) ([]sweep.Run, error) {
	return g.spec.ExpandWithSeeds(sim.DefaultParams(), gridSeeds(seed, g.seeds))
}
