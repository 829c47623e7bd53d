package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// eventLog is a telemetry sink keeping every recorded event.
type eventLog struct{ evs []telemetry.Event }

func (l *eventLog) WriteEvents(evs []telemetry.Event) error {
	l.evs = append(l.evs, evs...)
	return nil
}

// parkRun is one run of a parking scenario.
type parkRun struct {
	res   *Result
	err   error
	sched SchedStats
	evs   []telemetry.Event
}

// runParkSched runs the scenario under one scheduler. A non-zero mask
// attaches a recorder selecting those kinds.
func runParkSched(t *testing.T, p Params, kind SchedKind, mask uint64, build func() (*mem.Image, []*isa.Program)) parkRun {
	t.Helper()
	img, progs := build()
	p.Sched = kind
	m, err := New(p, img, progs)
	if err != nil {
		t.Fatal(err)
	}
	var log eventLog
	if mask != 0 {
		rec := telemetry.NewRecorder(&log, 0)
		rec.SetKinds(mask)
		m.Record(rec)
	}
	res, err := m.Run()
	return parkRun{res: res, err: err, sched: m.SchedStats(), evs: log.evs}
}

// runParked runs the scenario under the lockstep oracle and, without a
// recorder (so NACKed cores park), under the event scheduler, and fails
// unless both produce identical Results and errors. It returns the
// event-scheduler run.
func runParked(t *testing.T, label string, p Params, build func() (*mem.Image, []*isa.Program)) parkRun {
	t.Helper()
	lock := runParkSched(t, p, SchedLockstep, 0, build)
	ev := runParkSched(t, p, SchedEvent, 0, build)
	if fmt.Sprint(lock.err) != fmt.Sprint(ev.err) {
		t.Errorf("%s: errors diverge: lockstep %v, event %v", label, lock.err, ev.err)
	}
	if !reflect.DeepEqual(lock.res, ev.res) {
		t.Errorf("%s: results diverge\nlockstep: %+v\nevent:    %+v", label, lock.res, ev.res)
	}
	if lock.sched != (SchedStats{}) {
		t.Errorf("%s: lockstep scheduler stats = %+v, want zero", label, lock.sched)
	}
	return ev
}

// parkProgs assembles one program per role, placed on the cores named by
// ids (ids[r] is the core running role r); unnamed cores halt at once.
func parkProgs(cores int, ids []int, roles []*isa.Builder) []*isa.Program {
	progs := make([]*isa.Program, cores)
	for r, id := range ids {
		progs[id] = roles[r].MustAssemble()
	}
	for i := range progs {
		if progs[i] == nil {
			b := isa.NewBuilder("idle")
			b.Halt()
			progs[i] = b.MustAssemble()
		}
	}
	return progs
}

// nackBefore reports whether core id was NACKed within the retry interval
// before cycle t, that is, whether it was waiting out a NACK at t.
func nackBefore(evs []telemetry.Event, id int, t, retry int64) bool {
	for _, e := range evs {
		if e.Kind == telemetry.KindNack && int(e.Core) == id && e.Cycle < t && t-e.Cycle < retry {
			return true
		}
	}
	return false
}

// TestParkingSkipsRetries: on a contended 32-core counter the event
// scheduler parks NACKed cores and skips their polls — and says so in
// SchedStats — while the Result stays the lockstep oracle's. The lockstep
// scheduler never skips, and neither does an event run whose recorder
// selects NACK events: it polls, and its stream equals lockstep's.
func TestParkingSkipsRetries(t *testing.T) {
	build := func() (*mem.Image, []*isa.Program) {
		img, _, progs := buildCounter(32, 4, 2, 10)
		return img, progs
	}
	p := testParams(32, Eager)
	ev := runParked(t, "counter@32", p, build)
	if ev.sched.SkippedRetries == 0 {
		t.Error("event scheduler skipped no NACK retries on counter@32 eager")
	}
	if nacks := ev.res.Totals().Nacks; ev.sched.SkippedRetries >= nacks {
		t.Errorf("skipped %d retries of %d NACKs: the NACK that parks a core executes", ev.sched.SkippedRetries, nacks)
	}

	mask := telemetry.MaskOf(telemetry.KindNack, telemetry.KindCommit)
	lock := runParkSched(t, p, SchedLockstep, mask, build)
	rec := runParkSched(t, p, SchedEvent, mask, build)
	if lock.err != nil || rec.err != nil {
		t.Fatalf("recorded runs failed: %v, %v", lock.err, rec.err)
	}
	if rec.sched.SkippedRetries != 0 {
		t.Errorf("recorded run skipped %d retries, want 0 (it must poll)", rec.sched.SkippedRetries)
	}
	if !reflect.DeepEqual(lock.evs, rec.evs) {
		t.Errorf("recorded streams diverge: lockstep %d events, event %d", len(lock.evs), len(rec.evs))
	}
	if !reflect.DeepEqual(rec.res, ev.res) {
		t.Error("recording changed the Result")
	}
}

// TestParkedCoreRemoteAbort: a waiter parked on an older holder is
// aborted by a non-transactional store to a block it read, restarts, and
// parks again — until a second plain store aborts the holder, which must
// wake the waiter as a commit would. Every assignment of the three
// roles to core IDs is run, so the abort lands both before and after the
// waiter's turn in its cycle, on and off its retry grid. A promotion
// threshold of 40 conflicts makes the symbolic modes start tracking the
// contended block only through the conflicts of skipped retries.
func TestParkedCoreRemoteAbort(t *testing.T) {
	build := func(ids []int) func() (*mem.Image, []*isa.Program) {
		return func() (*mem.Image, []*isa.Program) {
			img := mem.NewImage(1 << 16)
			x := img.AllocBlocks(mem.BlockSize)
			y := img.AllocBlocks(mem.BlockSize)
			cold := img.AllocBlocks(16 * mem.BlockSize)

			// The holder and the aborter wait out DRAM misses, not busy
			// loops, so the machine never turns dense and the waiter stays
			// parked rather than handed to the polling dense loop.
			holder := isa.NewBuilder("holder")
			holder.TxBegin()
			holder.Li(isa.R(1), 1)
			holder.St(isa.R(1), isa.Zero, x, 8)
			for i := int64(0); i < 12; i++ {
				holder.Ld(isa.R(4), isa.Zero, cold+i*mem.BlockSize, 8)
			}
			holder.TxCommit()
			holder.Halt()

			waiter := isa.NewBuilder("waiter")
			waiter.BusyLoop(isa.R(2), 5, "late") // begins after the holder: younger
			waiter.TxBegin()
			waiter.Ld(isa.R(3), isa.Zero, y, 8)
			waiter.Ld(isa.R(1), isa.Zero, x, 8)
			waiter.Addi(isa.R(1), isa.R(1), 1)
			waiter.St(isa.R(1), isa.Zero, x, 8)
			waiter.TxCommit()
			waiter.Halt()

			aborter := isa.NewBuilder("aborter")
			for i := int64(12); i < 14; i++ {
				aborter.Ld(isa.R(4), isa.Zero, cold+i*mem.BlockSize, 8)
			}
			aborter.Li(isa.R(1), 7)
			aborter.St(isa.R(1), isa.Zero, y, 8)
			for i := int64(14); i < 16; i++ {
				aborter.Ld(isa.R(4), isa.Zero, cold+i*mem.BlockSize, 8)
			}
			aborter.St(isa.R(1), isa.Zero, x, 8)
			aborter.Halt()

			return img, parkProgs(3, ids, []*isa.Builder{holder, waiter, aborter})
		}
	}
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	abortedWhileWaiting := 0
	for _, ids := range perms {
		for _, retry := range []int64{1, 7, 10} {
			for _, mode := range []Mode{Eager, LazyVB, RetCon} {
				p := testParams(3, mode)
				p.NackRetry = retry
				label := fmt.Sprintf("roles=%v retry=%d mode=%v", ids, retry, mode)
				ev := runParked(t, label, p, build(ids))
				if ev.err != nil {
					t.Fatalf("%s: %v", label, ev.err)
				}
				if mode != Eager {
					p.PromoteAfter = 40
					runParked(t, label+" promote_after=40", p, build(ids))
					continue
				}
				if ev.sched.SkippedRetries == 0 || ev.sched.Handoffs != 0 {
					t.Errorf("%s: skipped=%d handoffs=%d, want parking and no dense phase", label, ev.sched.SkippedRetries, ev.sched.Handoffs)
				}
				// The scenario's premise, checked on the oracle's stream: the
				// abort hits the waiter while it waits out a NACK.
				lock := runParkSched(t, p, SchedLockstep, telemetry.ArchKinds, build(ids))
				for _, e := range lock.evs {
					if e.Kind == telemetry.KindAbort && int(e.Core) == ids[1] && nackBefore(lock.evs, ids[1], e.Cycle, retry) {
						abortedWhileWaiting++
						break
					}
				}
			}
		}
	}
	if abortedWhileWaiting == 0 {
		t.Error("no configuration aborted the waiter during its NACK wait")
	}
}

// TestParkedWakeSameCycle: a holder with a lower ID than its waiter
// commits on a cycle of the waiter's retry grid. The waiter's turn in that
// cycle is still ahead, so the poll loop would retry — and succeed — in
// the commit cycle itself; the woken core must join that cycle's due list.
// The holder's hold time is swept until the oracle shows the alignment.
func TestParkedWakeSameCycle(t *testing.T) {
	const retry = 7
	aligned := 0
	for hold := int64(0); hold < 3*retry; hold++ {
		build := func() (*mem.Image, []*isa.Program) {
			img := mem.NewImage(1 << 16)
			x := img.AllocBlocks(mem.BlockSize)
			holder := isa.NewBuilder("holder")
			holder.TxBegin()
			holder.Li(isa.R(1), 1)
			holder.St(isa.R(1), isa.Zero, x, 8)
			holder.BusyLoop(isa.R(2), 100+hold, "hold")
			holder.TxCommit()
			holder.Halt()
			waiter := isa.NewBuilder("waiter")
			waiter.BusyLoop(isa.R(2), 3, "late")
			waiter.TxBegin()
			waiter.Ld(isa.R(1), isa.Zero, x, 8)
			waiter.TxCommit()
			waiter.Halt()
			return img, []*isa.Program{holder.MustAssemble(), waiter.MustAssemble()}
		}
		p := testParams(2, Eager)
		p.NackRetry = retry
		label := fmt.Sprintf("hold=%d", hold)
		if ev := runParked(t, label, p, build); ev.err != nil {
			t.Fatalf("%s: %v", label, ev.err)
		}
		lock := runParkSched(t, p, SchedLockstep, telemetry.ArchKinds, build)
		var firstNack, commit int64 = -1, -1
		for _, e := range lock.evs {
			if e.Kind == telemetry.KindNack && e.Core == 1 && firstNack < 0 {
				firstNack = e.Cycle
			}
			if e.Kind == telemetry.KindCommit && e.Core == 0 {
				commit = e.Cycle
			}
		}
		if firstNack > 0 && commit > firstNack && (commit-firstNack)%retry == 0 {
			aligned++
		}
	}
	if aligned == 0 {
		t.Error("no hold time put the holder's commit on the waiter's retry grid")
	}
}

// TestParkedUntilWatchdog: the holder waits at a barrier inside its
// transaction for a waiter it NACKs forever. Under the event scheduler
// every live core is then parked with no wake at all; the run must expire
// the watchdog with the lockstep oracle's error.
func TestParkedUntilWatchdog(t *testing.T) {
	build := func() (*mem.Image, []*isa.Program) {
		img := mem.NewImage(1 << 16)
		x := img.AllocBlocks(mem.BlockSize)
		holder := isa.NewBuilder("holder")
		holder.TxBegin()
		holder.Li(isa.R(1), 1)
		holder.St(isa.R(1), isa.Zero, x, 8)
		holder.Barrier()
		holder.TxCommit()
		holder.Halt()
		waiter := isa.NewBuilder("waiter")
		waiter.BusyLoop(isa.R(2), 3, "late")
		waiter.TxBegin()
		waiter.Ld(isa.R(1), isa.Zero, x, 8)
		waiter.TxCommit()
		waiter.Barrier()
		waiter.Halt()
		return img, []*isa.Program{holder.MustAssemble(), waiter.MustAssemble()}
	}
	p := testParams(2, Eager)
	p.MaxCycles = 20_000
	ev := runParked(t, "watchdog", p, build)
	var wd *WatchdogError
	if !errors.As(ev.err, &wd) {
		t.Fatalf("err = %v, want a WatchdogError", ev.err)
	}
}

// TestParkedAcrossDenseHandoff: six cores spin in busy loops while a
// waiter is parked on a long transaction, so the event loop hands the
// dense phase to the polling dense loop with the waiter parked. The
// handoff must resume the waiter on its retry grid with its skipped polls
// accounted.
func TestParkedAcrossDenseHandoff(t *testing.T) {
	for _, ids := range [][]int{{3, 1}, {1, 3}} {
		build := func() (*mem.Image, []*isa.Program) {
			img := mem.NewImage(1 << 16)
			x := img.AllocBlocks(mem.BlockSize)
			holder := isa.NewBuilder("holder")
			holder.TxBegin()
			holder.Li(isa.R(1), 1)
			holder.St(isa.R(1), isa.Zero, x, 8)
			holder.BusyLoop(isa.R(2), 3000, "hold")
			holder.TxCommit()
			holder.Halt()
			waiter := isa.NewBuilder("waiter")
			waiter.BusyLoop(isa.R(2), 3, "late")
			waiter.TxBegin()
			waiter.Ld(isa.R(1), isa.Zero, x, 8)
			waiter.Addi(isa.R(1), isa.R(1), 1)
			waiter.St(isa.R(1), isa.Zero, x, 8)
			waiter.TxCommit()
			waiter.Halt()
			progs := parkProgs(8, ids, []*isa.Builder{holder, waiter})
			for i := range progs {
				if i != ids[0] && i != ids[1] {
					b := isa.NewBuilder("spin")
					b.BusyLoop(isa.R(2), 2500, "spin")
					b.Halt()
					progs[i] = b.MustAssemble()
				}
			}
			return img, progs
		}
		label := fmt.Sprintf("roles=%v", ids)
		ev := runParked(t, label, testParams(8, Eager), build)
		if ev.err != nil {
			t.Fatalf("%s: %v", label, ev.err)
		}
		if ev.sched.Handoffs == 0 || ev.sched.SkippedRetries == 0 {
			t.Errorf("%s: handoffs=%d skipped=%d, want both > 0", label, ev.sched.Handoffs, ev.sched.SkippedRetries)
		}
	}
}
