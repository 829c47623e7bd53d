package workloads

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TestSchedulerOracleFullGrid is the differential oracle for the
// event-driven time-skip scheduler: every workload kernel, under every
// conflict-handling mode, at several machine sizes, must produce a Result
// byte-identical to the lockstep reference scheduler's — cycle counts,
// per-category breakdowns, abort counts and the RETCON aggregates — and a
// final memory image passing the workload verifier.
func TestSchedulerOracleFullGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full scheduler-differential grid; run without -short")
	}
	for _, w := range small() {
		for _, mode := range []sim.Mode{sim.Eager, sim.LazyVB, sim.RetCon} {
			for _, cores := range []int{1, 4, 8} {
				results := make(map[sim.SchedKind]*sim.Result, 2)
				for _, kind := range []sim.SchedKind{sim.SchedLockstep, sim.SchedEvent} {
					b := w.Build(cores, 7)
					p := sim.DefaultParams()
					p.Cores = cores
					p.Mode = mode
					p.Sched = kind
					m, err := sim.New(p, b.Mem, b.Programs)
					if err != nil {
						t.Fatal(err)
					}
					res, err := m.Run()
					if err != nil {
						t.Fatalf("%s mode=%v cores=%d sched=%v: %v", w.Name(), mode, cores, kind, err)
					}
					if err := b.Verify(b.Mem); err != nil {
						t.Errorf("%s mode=%v cores=%d sched=%v: %v", w.Name(), mode, cores, kind, err)
					}
					results[kind] = res
				}
				if !reflect.DeepEqual(results[sim.SchedLockstep], results[sim.SchedEvent]) {
					t.Errorf("%s mode=%v cores=%d: schedulers diverge\nlockstep: %+v\nevent:    %+v",
						w.Name(), mode, cores, results[sim.SchedLockstep], results[sim.SchedEvent])
				}
			}
		}
	}
}

// TestSchedulerOracleLargeMachines extends the differential oracle to the
// machine sizes served by the event scheduler's timing-wheel loop (above
// 16 cores), on the conflict-heavy workloads whose NACKed cores park on
// their holder's transaction instead of polling. Retry intervals of 1
// (every cycle is a retry point), 7 and 10 cycles vary where holders'
// commits and aborts fall relative to their waiters' retry grids. Results
// and final memory must be byte-identical to the lockstep oracle's.
func TestSchedulerOracleLargeMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("large-machine scheduler-differential grid; run without -short")
	}
	ws := []Workload{
		&Counter{OpsPerThread: 3, IncsPerTx: 2, LocalWork: 4},
		&Python{BatchesPerCPU: 2, BatchLen: 6, HotObjects: 3, ColdObjects: 32, HotPct: 70, DispatchWork: 4, AllocEvery: 3, RefWindow: 2, baseThreads: 64},
		&Python{Opt: true, BatchesPerCPU: 2, BatchLen: 6, HotObjects: 3, ColdObjects: 32, HotPct: 70, DispatchWork: 4, AllocEvery: 3, RefWindow: 2, baseThreads: 64},
	}
	for _, w := range ws {
		for _, cores := range []int{32, 64} {
			for _, mode := range []sim.Mode{sim.Eager, sim.LazyVB, sim.RetCon} {
				for _, retry := range []int64{1, 7, 10} {
					var ref struct {
						res *sim.Result
						mem *mem.Image
					}
					for _, kind := range []sim.SchedKind{sim.SchedLockstep, sim.SchedEvent} {
						b := w.Build(cores, 3)
						p := sim.DefaultParams()
						p.Cores, p.Mode, p.Sched, p.NackRetry = cores, mode, kind, retry
						m, err := sim.New(p, b.Mem, b.Programs)
						if err != nil {
							t.Fatal(err)
						}
						res, err := m.Run()
						if err != nil {
							t.Fatalf("%s mode=%v cores=%d retry=%d sched=%v: %v", w.Name(), mode, cores, retry, kind, err)
						}
						if err := b.Verify(b.Mem); err != nil {
							t.Errorf("%s mode=%v cores=%d retry=%d sched=%v: %v", w.Name(), mode, cores, retry, kind, err)
						}
						if kind == sim.SchedLockstep {
							ref.res, ref.mem = res, b.Mem
							continue
						}
						if !reflect.DeepEqual(ref.res, res) {
							t.Errorf("%s mode=%v cores=%d retry=%d: schedulers diverge\nlockstep: %+v\nevent:    %+v",
								w.Name(), mode, cores, retry, ref.res, res)
						}
						if !ref.mem.Equal(b.Mem) {
							t.Errorf("%s mode=%v cores=%d retry=%d: final memory diverges", w.Name(), mode, cores, retry)
						}
					}
				}
			}
		}
	}
}
