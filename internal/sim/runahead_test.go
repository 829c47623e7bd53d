package sim_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/testutil"
	"repro/internal/workloads"
)

// eventLog is a telemetry sink keeping every recorded event.
type eventLog struct{ evs []telemetry.Event }

func (l *eventLog) WriteEvents(evs []telemetry.Event) error {
	l.evs = append(l.evs, evs...)
	return nil
}

// crossRunAhead checks build under lockstep and the event scheduler with
// testutil.CrossSched twice: once recording ArchKinds, where the two
// recorded streams must also be equal, and once unrecorded, so that NACKed
// cores park. It returns the unrecorded event run's Result and scheduler
// statistics, and the lockstep stream.
func crossRunAhead(t *testing.T, label string, p sim.Params, build func() *workloads.Bundle) (*sim.Result, sim.SchedStats, []telemetry.Event) {
	t.Helper()
	var logs []*eventLog
	testutil.CrossSched(t, label, p, build, false, func(m *sim.Machine) {
		l := &eventLog{}
		logs = append(logs, l)
		rec := telemetry.NewRecorder(l, 0)
		rec.SetKinds(telemetry.ArchKinds)
		m.Record(rec)
	})
	if !reflect.DeepEqual(logs[0].evs, logs[1].evs) {
		t.Fatalf("%s/%v: recorded streams diverge:%s", label, p.Mode, firstEventDiff(logs[0].evs, logs[1].evs))
	}
	var ev *sim.Machine // CrossSched runs lockstep first, so the last machine is the event run's
	out := testutil.CrossSched(t, label, p, build, false, func(m *sim.Machine) { ev = m })
	return out.Res, ev.SchedStats(), logs[0].evs
}

func firstEventDiff(a, b []telemetry.Event) string {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return fmt.Sprintf("\nevent %d:\n  lockstep: %+v\n  event:    %+v", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("\none stream is a prefix of the other (%d vs %d events)", len(a), len(b))
}

func params(cores int, mode sim.Mode) sim.Params {
	p := sim.DefaultParams()
	p.Cores, p.Mode = cores, mode
	return p
}

// delayCycles emits d+3 cycles of register-only work.
func delayCycles(b *isa.Builder, ctr isa.Reg, d int64, label string) {
	if d%2 == 1 {
		b.Nop()
	}
	b.Li(ctr, d/2)
	b.Label(label)
	b.Addi(ctr, ctr, -1)
	b.Bge(ctr, isa.Zero, label)
}

// abortMidBatchBundle is TestRunAheadRemoteAbortMidBatch's scenario:
// the victim (core ids[0]) reads x in a transaction, then spends ~1400
// cycles in a register-only loop; the aborter (core ids[1]) stores to x
// after a delay of d cycles.
func abortMidBatchBundle(ids [2]int, d int64) *workloads.Bundle {
	img := mem.NewImage(1 << 16)
	x := img.AllocBlocks(mem.BlockSize)
	victim := isa.NewBuilder("victim")
	victim.Ld(isa.R(1), isa.Zero, x, 8) // warm x: the transactional load hits in L1
	victim.TxBegin()
	victim.Ld(isa.R(1), isa.Zero, x, 8)
	victim.Addi(isa.R(1), isa.R(1), 1)
	victim.BusyLoop(isa.R(2), 700, "work")
	victim.St(isa.R(1), isa.Zero, x+8, 8)
	victim.TxCommit()
	victim.Halt()
	aborter := isa.NewBuilder("aborter")
	delayCycles(aborter, isa.R(2), d, "wait")
	aborter.Li(isa.R(1), 7)
	aborter.St(isa.R(1), isa.Zero, x, 8)
	aborter.Halt()
	progs := make([]*isa.Program, 2)
	progs[ids[0]], progs[ids[1]] = victim.MustAssemble(), aborter.MustAssemble()
	return &workloads.Bundle{Mem: img, Programs: progs}
}

// TestRunAheadRemoteAbortMidBatch: a victim transaction's register-only
// loop, which the event scheduler runs ahead in two batches of up to 1023
// instructions, is cut short by a plain store to a block it read. The
// store's cycle is swept coarsely across the transaction and one cycle at
// a time around the two batches' issue turns, so the abort lands before,
// at, inside and between the batches, with the victim's ID below and
// above the aborter's, in all three modes: the unwound instruction
// counts, cycles, memory and recorded streams must equal lockstep's.
func TestRunAheadRemoteAbortMidBatch(t *testing.T) {
	stride := int64(11)
	if testing.Short() {
		stride = 97
	}
	// The victim's transaction begins at the same cycle in every run that
	// aborts it (found from a run that does not). Its first batch issues
	// in the turn of the load after the begin, its second 1024 cycles on;
	// the aborter's store issues at cycle d+5.
	var log eventLog
	testutil.Exec(t, params(2, sim.Eager), abortMidBatchBundle([2]int{0, 1}, 5000), false, func(m *sim.Machine) {
		m.Record(telemetry.NewRecorder(&log, 0))
	})
	begin := int64(-1)
	for _, e := range log.evs {
		if e.Kind == telemetry.KindBegin {
			begin = e.Cycle
		}
	}
	var delays []int64
	for d := int64(100); d < 1700; d += stride {
		delays = append(delays, d)
	}
	for _, turn := range []int64{begin + 1, begin + 1 + 1024} {
		for s := turn - 4; s <= turn+4; s++ {
			delays = append(delays, s-5)
		}
	}
	for _, ids := range [][2]int{{0, 1}, {1, 0}} { // victim, aborter
		for _, mode := range []sim.Mode{sim.Eager, sim.LazyVB, sim.RetCon} {
			midBatch, ranAhead := 0, false
			for _, d := range delays {
				p := params(2, mode)
				label := fmt.Sprintf("victim=%d delay=%d", ids[0], d)
				_, st, evs := crossRunAhead(t, label, p, func() *workloads.Bundle { return abortMidBatchBundle(ids, d) })
				ranAhead = ranAhead || st.RunAheadInstrs > 0
				// The begin and the load are the attempt's first two busy
				// cycles: an abort that throws away more landed in the loop.
				for _, e := range evs {
					if e.Kind == telemetry.KindAbort && int(e.Core) == ids[0] && e.C > 2 {
						midBatch++
						break
					}
				}
			}
			if !ranAhead || midBatch == 0 {
				t.Errorf("victim=%d %v: ran ahead %v, %d aborts inside the loop; want both", ids[0], mode, ranAhead, midBatch)
			}
		}
	}
}

// TestRunAheadWatchdogMidBatch: a core in a long register-only loop
// outlives a watchdog bound swept across several batches. The event
// scheduler must not run a batch past MaxCycles, so the WatchdogError —
// cycle count and every core's PC — is lockstep's.
func TestRunAheadWatchdogMidBatch(t *testing.T) {
	stride := int64(7)
	if testing.Short() {
		stride = 61
	}
	// The spinning core's batches issue at cycles 1, 1025, 2049, ...: sweep
	// coarsely, and one cycle at a time around each of those turns.
	var limits []int64
	for l := int64(1000); l < 3200; l += stride {
		limits = append(limits, l)
	}
	for _, turn := range []int64{1025, 2049, 3073} {
		for l := turn - 3; l <= turn+3; l++ {
			limits = append(limits, l)
		}
	}
	for _, limit := range limits {
		var errs [2]error
		for i, kind := range []sim.SchedKind{sim.SchedLockstep, sim.SchedEvent} {
			img := mem.NewImage(1 << 16)
			x := img.AllocBlocks(mem.BlockSize)
			spin := isa.NewBuilder("spin")
			spin.BusyLoop(isa.R(2), 1_000_000, "spin")
			spin.Halt()
			loads := isa.NewBuilder("loads")
			loads.Ld(isa.R(1), isa.Zero, x, 8)
			loads.BusyLoop(isa.R(2), 300, "think")
			loads.Ld(isa.R(1), isa.Zero, x, 8)
			loads.Halt()
			p := params(2, sim.Eager)
			p.Sched = kind
			p.MaxCycles = limit
			m, err := sim.New(p, img, []*isa.Program{spin.MustAssemble(), loads.MustAssemble()})
			if err != nil {
				t.Fatal(err)
			}
			_, errs[i] = m.Run()
		}
		var lock, ev *sim.WatchdogError
		if !errors.As(errs[0], &lock) || !errors.As(errs[1], &ev) {
			t.Fatalf("limit=%d: errors %v / %v, want WatchdogErrors", limit, errs[0], errs[1])
		}
		if !reflect.DeepEqual(lock, ev) {
			t.Fatalf("limit=%d: watchdogs diverge: lockstep %+v, event %+v", limit, lock, ev)
		}
	}
}

// TestRunAheadStopsAtOverflowingPin: under RETCON a transaction tracks
// two blocks symbolically, then runs register-only work that multiplies
// each of them — an untrackable use that pins its root with an equality
// constraint. With room for one constraint, the second pin overflows and
// aborts. Run-ahead must stop at each symbolic operand, so the pins, the
// overflow abort and its events happen at lockstep's cycles.
func TestRunAheadStopsAtOverflowingPin(t *testing.T) {
	build := func() *workloads.Bundle {
		img := mem.NewImage(1 << 16)
		a := img.AllocBlocks(mem.BlockSize)
		b := img.AllocBlocks(mem.BlockSize)
		out := img.AllocBlocks(mem.BlockSize)
		// Two older holders write a and b; the reader's loads are NACKed
		// until each commits, which trains its predictor to track both.
		holder := func(name string, addr, hold int64) *isa.Program {
			h := isa.NewBuilder(name)
			h.TxBegin()
			h.Li(isa.R(1), 5)
			h.St(isa.R(1), isa.Zero, addr, 8)
			h.BusyLoop(isa.R(2), hold, "hold")
			h.TxCommit()
			h.Halt()
			return h.MustAssemble()
		}
		r := isa.NewBuilder("reader")
		r.BusyLoop(isa.R(2), 20, "late") // begins after the holders: younger
		r.TxBegin()
		r.Ld(isa.R(1), isa.Zero, a, 8)
		r.Ld(isa.R(2), isa.Zero, b, 8)
		r.BusyLoop(isa.R(8), 40, "w1")
		r.Muli(isa.R(3), isa.R(1), 10) // pins a: the one constraint entry
		r.BusyLoop(isa.R(8), 40, "w2")
		r.Bgt(isa.R(1), isa.Zero, "pos") // symbolic branch: narrows a's existing entry
		r.Label("pos")
		r.BusyLoop(isa.R(8), 40, "w3")
		r.Muli(isa.R(4), isa.R(2), 10) // pins b: overflows on the first attempt
		r.Add(isa.R(3), isa.R(3), isa.R(4))
		r.St(isa.R(3), isa.Zero, out, 8)
		r.TxCommit()
		r.Halt()
		return &workloads.Bundle{Mem: img, Programs: []*isa.Program{
			holder("holder-a", a, 100), holder("holder-b", b, 400), r.MustAssemble()}}
	}
	p := params(3, sim.RetCon)
	p.Retcon.ConstraintEntries = 1
	res, st, _ := crossRunAhead(t, "overflowing pin", p, build)
	if res.Retcon.StructureOverflowAborts == 0 || st.RunAheadInstrs == 0 {
		t.Errorf("overflow aborts %d, run-ahead instructions %d; want both > 0",
			res.Retcon.StructureOverflowAborts, st.RunAheadInstrs)
	}
}
