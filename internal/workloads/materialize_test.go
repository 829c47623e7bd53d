package workloads_test

import (
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/wspec"
)

// TestRunStaysInMaterializedPrefix guards the steady-state allocation
// budget against layout drift. Build materializes the image prefix its
// allocations cover; a run that stores outside every allocation would
// grow the image from inside the cycle loop, which otherwise shows up
// only as a sim.allocs_per_run regression in the benchmark. Every
// builtin workload (eager and RetCon, 4 cores) and every example spec
// must finish with the prefix Build left.
func TestRunStaysInMaterializedPrefix(t *testing.T) {
	ws := workloads.Builtins()
	paths, err := filepath.Glob("../../examples/workloads/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("example specs missing: %v", err)
	}
	for _, path := range paths {
		spec, err := wspec.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		w, err := spec.Compile("", nil)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	for _, w := range ws {
		for _, mode := range []sim.Mode{sim.Eager, sim.RetCon} {
			b := w.Build(4, 1)
			built := b.Mem.Materialized()
			p := sim.DefaultParams()
			p.Cores = 4
			p.Mode = mode
			m, err := sim.New(p, b.Mem, b.Programs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatalf("%s/%v: %v", w.Name(), mode, err)
			}
			if got := b.Mem.Materialized(); got != built {
				t.Errorf("%s/%v: run grew the materialized prefix from %d to %d bytes (a store outside every allocation)",
					w.Name(), mode, built, got)
			}
		}
	}
}
