package sim

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"repro/internal/telemetry"
)

// neverWakes is the wake time of a core with no timed wake event; it is
// above any reachable MaxCycles, so it always trips the watchdog branch.
const neverWakes = int64(math.MaxInt64)

// SchedKind selects the machine's cycle-loop scheduler.
type SchedKind int

// Scheduler kinds.
const (
	// SchedEvent is the event-driven time-skip scheduler (the default):
	// when no core can execute this cycle, Now jumps straight to the
	// earliest wake event and the skipped cycles are bulk-attributed.
	SchedEvent SchedKind = iota
	// SchedLockstep is the cycle-by-cycle reference scheduler, retained
	// in-tree as the differential-testing oracle.
	SchedLockstep
)

// String returns the scheduler's flag name.
func (k SchedKind) String() string {
	switch k {
	case SchedEvent:
		return "event"
	case SchedLockstep:
		return "lockstep"
	}
	return fmt.Sprintf("sched(%d)", int(k))
}

// ParseSched parses a scheduler name: "event" or "lockstep".
func ParseSched(s string) (SchedKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "event", "":
		return SchedEvent, nil
	case "lockstep":
		return SchedLockstep, nil
	}
	return 0, fmt.Errorf("sim: unknown scheduler %q (want event or lockstep)", s)
}

// Scheduler drives the machine's cycle loop. Implementations must be
// observationally invisible: for identical inputs every scheduler yields
// identical Results (cycle counts, per-category breakdowns, abort counts,
// RETCON aggregates) and identical trace output. The lockstep scheduler
// defines those semantics; the event scheduler is checked against it by
// the differential oracle tests.
type Scheduler interface {
	// Name identifies the scheduler (the SchedKind flag name).
	Name() string
	// Run simulates until every core halts. It returns an error when the
	// cycle watchdog expires (deadlock or livelock).
	Run(m *Machine) error
}

func newScheduler(k SchedKind) Scheduler {
	if k == SchedLockstep {
		return lockstepSched{}
	}
	return eventSched{}
}

// lockstepSched is the reference scheduler: every simulated cycle touches
// every core, exactly as the original fixed stepper did.
type lockstepSched struct{}

func (lockstepSched) Name() string { return SchedLockstep.String() }

// interruptMask gates the lockstep loop's cooperative-interrupt poll to
// every 4096 cycles: one atomic load per 4096 iterations is invisible in
// the per-cycle budget, and a wall-clock abandon (the only caller of
// Interrupt) cares about milliseconds, not cycles. The event loops poll
// at their denseWindow boundaries instead.
const interruptMask = 4096 - 1

func (lockstepSched) Run(m *Machine) error {
	for !m.allHalted() {
		if m.Now >= m.P.MaxCycles {
			return m.watchdogErr()
		}
		if m.Now&interruptMask == 0 && m.interrupted.Load() {
			return m.interruptedErr()
		}
		m.Step()
		if m.hookErr != nil {
			return m.hookErr
		}
	}
	return nil
}

// eventSched is the event-driven time-skip scheduler. Each core's next
// wake time is explicit (stall expiry; barrier waits and halts wake only
// through another core's execution), so the loop jumps Now from wake
// event to wake event — a cycle in which no core is due is never visited,
// and a core costs nothing between events. The skipped cycles are
// attributed lazily: settle() bulk-charges them to the core's pending
// wait category the moment its state is next observed (its own
// execution, a remote abort, a barrier release), reproducing the lockstep
// stepper's per-cycle accounting exactly — including the in-transaction
// busy/other accumulators that abort reattribution subtracts, and the
// core-ID-order tie-breaks within a cycle.
//
// Bookkeeping: every core has exactly one wake time, held in the dense
// Machine.wakes array indexed by core ID (rewritten in place by mid-cycle
// reschedules — remote aborts, barrier releases — so there are no stale
// queue entries to filter at the source of truth). Two wake-queue
// strategies sit on top of that array, chosen by machine size:
//
//   - runScan (≤ scanSchedMaxCores): the array IS the queue. One tight
//     single-compare pass finds the minimum upcoming wake, a second pass
//     collects the cores due at it (ascending ID by construction). On
//     small machines this beats a wheel or heap — which pay per-event
//     pushes, stale-entry filtering and an ID-order merge — on exactly the
//     conflict-heavy runs (frequent short NACK/backoff stalls) where the
//     scheduler itself is the bottleneck.
//
//   - runWheel (larger machines): a single-level timing wheel with an
//     occupancy bitmap plus an overflow min-heap. A per-visited-cycle
//     O(cores) scan would dominate at 64 cores when most of them sit in
//     long DRAM or barrier stalls; the wheel keeps per-cycle cost at
//     O(due) with per-event O(1) pushes. Entries are (wake, id) keys
//     validated against Machine.wakes, so entries orphaned by a mid-cycle
//     reschedule are dropped when encountered.
//
// Both strategies execute due cores in ascending ID order at the same
// cycles and re-check Machine.wakes at each core's turn, so they are
// observationally identical to each other and to the lockstep oracle.
//
// Dense phases — every live core executing nearly every cycle, so there is
// nothing to skip — are where an event queue can only lose: it pays wake
// writes, ready-list churn and lazy-attribution bookkeeping per core per
// cycle and skips nothing in return (measured 0.76–0.80× lockstep on
// genome@32, whose exec density is 0.76 instructions per live core-cycle,
// versus 2–4× wins on sparse runs at density ≤ 0.3). Both loops therefore
// sample exec density over windows of visited cycles and hand such phases
// to runDense, a lockstep-equivalent inner loop over the live-core list
// with eager attribution and none of the queue machinery, which hands back
// when density drops. The switch triggers depend only on simulated state,
// so scheduling stays deterministic, and both loops' entry preambles
// rebuild the wake table from core state, so the hand-offs are invisible
// in the Results (the differential oracle and fuzz corpus check this).
type eventSched struct{}

func (eventSched) Name() string { return SchedEvent.String() }

// Dense-phase detection: the event loops sample exec density — exec calls
// per live core-cycle, counting skipped cycles in the denominator — over
// windows of denseWindow cycles and switch to the dense inner loop above
// denseEnterPct, back below denseExitPct. The hysteresis gap damps
// oscillation (a switch costs one O(cores) settle/rebuild pass); the
// thresholds bracket the measured crossover: runs where the event queues
// win big sit at ≤30% density, the regressed dense runs at ≥68%.
const (
	denseWindow   = 1024
	denseEnterPct = 55
	denseExitPct  = 40
)

// parked marks a core with no timed wake: halted, waiting at a barrier
// until a release rewrites its slot, or parked on a NACK until its
// holder's transaction ends (see park). It is the maximum wake time, so
// the scan's min pass needs no special case for parked cores.
const parked = neverWakes

// scanSchedMaxCores is the largest machine the dense-scan wake queue is
// used for; larger machines use the timing wheel. The crossover is where
// the scan's O(cores) per visited cycle overtakes the wheel's per-event
// overhead (measured: scan wins clearly at 8–16, wheel at 32–64).
const scanSchedMaxCores = 16

func (eventSched) Run(m *Machine) error {
	m.lazyAttr = true
	// A recorder that selects NACK or predictor-training events must see
	// every retry emit its own events, so such runs keep polling.
	parking := !m.rec.Wants(telemetry.KindNack) && !m.rec.Wants(telemetry.KindTrain)
	m.parking = parking
	defer func() { m.lazyAttr, m.parking = false, false }()
	// Entry check so an interrupt raised before Run (a deadline abandon
	// racing a pool handoff) fails even a run too short to reach its
	// first window boundary; the loops poll at the boundaries after this.
	if m.interrupted.Load() {
		return m.interruptedErr()
	}
	useScan := len(m.Cores) <= scanSchedMaxCores
	for {
		var (
			done bool
			err  error
		)
		spanStart := m.Now
		if useScan {
			done, err = m.runScan()
		} else {
			done, err = m.runWheel()
		}
		m.schedStats.EventCycles += m.Now - spanStart
		if done || err != nil {
			return err
		}
		// The event loop detected a dense phase. Settle every live core's
		// lazy attribution through the current cycle (each is either fully
		// attributed — it executed this cycle — or mid-wait with its wait
		// category still pending, exactly what settle charges), then run
		// eagerly attributed dense cycles until the phase ends. The dense
		// loop polls NACKed cores, so parked cores resume their retry grid
		// at its next point.
		m.schedStats.Handoffs++
		if m.rec != nil {
			// Scheduler-infrastructure event: masked out of ArchKinds, so
			// default streams stay scheduler-portable.
			m.rec.Emit(telemetry.Event{Cycle: m.Now, Core: -1, Kind: telemetry.KindHandoff, A: 1})
		}
		for _, c := range m.Cores {
			if c.parkedAt != 0 {
				m.unpark(c, m.Now+1)
			}
			if !c.halted {
				m.settle(c, m.Now)
			}
		}
		m.lazyAttr, m.parking = false, false
		spanStart = m.Now
		done, err = m.runDense()
		m.schedStats.DenseCycles += m.Now - spanStart
		m.lazyAttr, m.parking = true, parking
		if done || err != nil {
			return err
		}
		if m.rec != nil {
			m.rec.Emit(telemetry.Event{Cycle: m.Now, Core: -1, Kind: telemetry.KindHandoff, A: 0})
		}
	}
}

// runDense is the dense-phase inner loop: lockstep-equivalent stepping
// (every cycle visited, eager attribution) minus lockstep's overheads — it
// iterates a compacted live-core list instead of branching over halted
// cores, inlines the per-core dispatch, and bulk-skips the occasional
// cycle in which no live core can execute (charging the idle span exactly
// as lockstep's per-cycle attribution would). It returns done=true when
// every core has halted, done=false when exec density falls below the exit
// threshold and the caller should resume an event loop.
//
//retcon:hotpath per-cycle inner loop; see TestAllocsPerCycleRegression
func (m *Machine) runDense() (done bool, err error) {
	live := m.live[:0]
	defer func() { m.live = live }()
	for _, c := range m.Cores {
		if !c.halted {
			live = append(live, c)
		}
	}
	winStart, winExec := m.Now, int64(0)
	for len(live) > 0 {
		if m.Now >= m.P.MaxCycles {
			return false, m.watchdogErr()
		}
		m.Now++
		executed := int64(0)
		for _, c := range live {
			switch {
			case c.barrierWait:
				c.addCycle(CatBarrier)
			case m.Now <= c.stallUntil:
				c.addCycle(c.stallCat)
			default:
				m.exec(c)
				executed++
			}
		}
		if m.syncDirty {
			// A HALT always sets syncDirty (it changes the barrier-release
			// condition), so this is also the only cycle the live list can
			// shrink — the per-exec halt check stays off the hot path.
			m.releaseBarrier()
			keep := live[:0]
			for _, c := range live {
				if !c.halted {
					keep = append(keep, c)
				}
			}
			live = keep
		}
		if m.hookErr != nil {
			return false, m.hookErr
		}
		winExec += executed
		if executed == 0 && len(live) > 0 {
			// Idle cycle: nothing can execute before the earliest stall
			// expiry (a barrier wait ends only through another core's
			// execution, so if every live core barrier-waits the machine
			// idles to the watchdog, as lockstep would). Charge the idle
			// span in bulk and jump.
			nextWake := neverWakes
			for _, c := range live {
				if !c.barrierWait && c.stallUntil < nextWake {
					nextWake = c.stallUntil
				}
			}
			if k := min(nextWake, m.P.MaxCycles) - m.Now; k > 0 {
				for _, c := range live {
					if c.barrierWait {
						c.chargeCycles(CatBarrier, k)
					} else {
						c.chargeCycles(c.stallCat, k)
					}
				}
				m.Now += k
			}
		}
		if m.Now-winStart >= denseWindow {
			if m.interrupted.Load() {
				return false, m.interruptedErr()
			}
			if winExec*100 < denseExitPct*(m.Now-winStart)*int64(len(live)) {
				return false, nil
			}
			winStart, winExec = m.Now, 0
		}
	}
	return true, nil
}

// runScan is the small-machine event loop: the wake array is the queue.
//
// Two fast paths keep the dense busy case (every core executing every
// cycle, where an event scheduler can skip nothing and must merely not
// lose to lockstep) nearly scan-free:
//
//   - nextReady accumulates the IDs scheduled for m.Now+1 while the
//     current cycle is processed, so the next cycle's visit time and due
//     list are known without touching the wake table;
//   - minStall is a lower bound on the earliest timed (>= Now+2) wake.
//     While Now+1 stays below it, no stall expiry can be due, and
//     nextReady alone is the complete due list. Only when a visited cycle
//     reaches the bound does a full table scan run — and it recomputes the
//     bound exactly.
//
// The bound is maintained at every timed-wake write (including remote
// aborts, which can only move a wake later — so the bound may go stale
// low, which costs at most a harmless extra scan, never a missed core).
//
// The preamble rebuilds the wake table from core state alone, so the loop
// can be entered both at the start of a run and after a dense phase (cores
// may then be mid-stall or parked at a barrier). It returns done=true when
// every core has halted, done=false to hand a dense phase to runDense.
//
//retcon:hotpath per-cycle event loop; see TestAllocsPerCycleRegression
func (m *Machine) runScan() (done bool, err error) {
	halted := 0
	n := len(m.Cores)
	ready := m.ready[:0] // core IDs, not pointers: appends skip GC write barriers
	defer func() { m.ready = ready }()
	wakes := m.wakes
	m.nextReady = m.nextReady[:0]
	m.minStall = neverWakes
	for _, c := range m.Cores {
		c.attributedUntil = m.Now
		switch {
		case c.halted:
			halted++
			wakes[c.ID] = parked
		case c.barrierWait:
			wakes[c.ID] = parked
		case c.stallUntil > m.Now:
			w := c.stallUntil + 1
			wakes[c.ID] = w
			if w < m.minStall {
				m.minStall = w
			}
		default:
			wakes[c.ID] = m.Now + 1
			m.nextReady = append(m.nextReady, c.ID)
		}
	}
	winStart, winExec := m.Now, int64(0)
	for halted < n {
		// Invariant at the top of each iteration: every slot is either
		// parked (+inf) or strictly after m.Now, so the minimum over the
		// table is the next cycle to visit — taken from the fast-path
		// bookkeeping when it is conclusive, from a full scan otherwise.
		var next int64
		switch {
		case len(m.nextReady) > 0:
			next = m.Now + 1
		case m.minStall > m.Now:
			next = m.minStall // may be stale-low: the visit self-corrects
		default:
			next = wakes[0]
			for _, w := range wakes[1:] {
				if w < next {
					next = w
				}
			}
		}
		if next > m.P.MaxCycles {
			// The next wake lies beyond the watchdog (or there is none at
			// all: every live core parked at a barrier that cannot release).
			// The lockstep machine would idle up to the bound and expire
			// there; report the identical failure.
			m.Now = m.P.MaxCycles
			return false, m.watchdogErr()
		}
		m.Now = next
		if next < m.minStall {
			// No timed wake can be due yet: the accumulated next-cycle list
			// is the complete due list.
			ready, m.nextReady = m.nextReady, ready[:0]
		} else {
			// A timed wake is (possibly) due: collect from the table and
			// recompute the bound exactly from the survivors.
			ready = ready[:0]
			minStall := neverWakes
			for id, w := range wakes {
				if w == next {
					ready = append(ready, id)
				} else if w > next && w < minStall {
					minStall = w
				}
			}
			m.minStall = minStall
			m.nextReady = m.nextReady[:0]
		}

		for i := 0; i < len(ready); i++ {
			id := ready[i]
			// Re-check the schedule at the core's turn: an earlier core's
			// execution this cycle may have aborted (and rescheduled) it,
			// exactly as under lockstep order. The wake slot is checked
			// before the core is even loaded — stale entries cost one array
			// read, not a cache miss on the Core.
			if wakes[id] != m.Now {
				continue
			}
			c := m.Cores[id]
			if c.halted || c.barrierWait {
				continue
			}
			if m.Now <= c.stallUntil {
				// Re-stalled after scheduling (defensive: abort reschedules).
				w := c.stallUntil + 1
				wakes[c.ID] = w
				if w < m.minStall {
					m.minStall = w
				}
				continue
			}
			m.settle(c, m.Now-1)
			c.attributedUntil = m.Now
			m.execID = c.ID
			m.exec(c)
			winExec++
			switch {
			case c.halted:
				halted++
				wakes[c.ID] = parked
			case c.barrierWait:
				wakes[c.ID] = parked // woken by the release rewriting the slot
			case c.parkedAt != 0:
				wakes[c.ID] = parked // woken by its holder's commit or abort
			case c.stallUntil > m.Now:
				w := c.stallUntil + 1
				wakes[c.ID] = w
				if w < m.minStall {
					m.minStall = w
				}
			default:
				wakes[c.ID] = m.Now + 1
				m.nextReady = append(m.nextReady, c.ID)
			}
			if len(m.wokeNow) > 0 {
				ready = m.foldWokeNow(ready)
			}
		}
		if m.syncDirty {
			m.releaseBarrier()
			// Barrier releases schedule cores for m.Now+1 via pendingWakes;
			// fold the released IDs into the next-cycle list (remote-abort
			// victims in the same list have timed wakes and are filtered).
			if len(m.pendingWakes) > 0 {
				for _, id := range m.pendingWakes {
					if wakes[id] == m.Now+1 {
						m.nextReady = append(m.nextReady, id)
					}
				}
				sortByID(m.nextReady)
			}
		}
		if m.hookErr != nil {
			return false, m.hookErr
		}
		m.pendingWakes = m.pendingWakes[:0]
		if m.Now-winStart >= denseWindow {
			if m.interrupted.Load() {
				return false, m.interruptedErr()
			}
			if halted < n && winExec*100 >= denseEnterPct*(m.Now-winStart)*int64(n-halted) {
				return false, nil
			}
			winStart, winExec = m.Now, 0
		}
	}
	return true, nil
}

// runWheel is the large-machine event loop: wakes beyond the next cycle
// go through the timing wheel, cores continuing at Now+1 through the
// readyNext fast path. Machine.wakes remains the source of truth; wheel
// entries that no longer match it are stale and dropped when encountered,
// and mid-cycle reschedules (which rewrite wakes directly) are adopted
// into the wheel from pendingWakes after the cycle's batch.
//
// Like runScan, the preamble rebuilds the wake table (and wheel) from core
// state alone, so the loop can be entered mid-run after a dense phase, and
// the return contract is the same: done=true when every core has halted,
// done=false to hand a dense phase to runDense.
//
//retcon:hotpath per-cycle event loop; see TestAllocsPerCycleRegression
func (m *Machine) runWheel() (done bool, err error) {
	halted := 0
	wheel := m.wheel
	if wheel == nil {
		wheel = newWakeWheel()
		m.wheel = wheel
	} else {
		wheel.reset()
	}
	n := len(m.Cores)
	wakes := m.wakes
	ready := m.ready[:0] // core IDs, not pointers: appends skip GC write barriers
	readyNext := m.nextReady[:0]
	popped := m.popped[:0]
	defer func() { m.ready, m.nextReady, m.popped = ready, readyNext, popped }()
	for _, c := range m.Cores {
		c.attributedUntil = m.Now
		switch {
		case c.halted:
			halted++
			wakes[c.ID] = parked
		case c.barrierWait:
			wakes[c.ID] = parked
		case c.stallUntil > m.Now:
			wakes[c.ID] = c.stallUntil + 1
			wheel.push(wakeKey(wakes[c.ID], c.ID), m.Now)
		default:
			wakes[c.ID] = m.Now + 1
			readyNext = append(readyNext, c.ID)
		}
	}
	winStart, winExec := m.Now, int64(0)
	for halted < n {
		// The next cycle to visit: readyNext cores are due one cycle out,
		// everything else at the wheel's earliest occupied slot.
		next := neverWakes
		if len(readyNext) > 0 {
			next = m.Now + 1
		} else {
			next = wheel.nextWake(m, m.Now)
		}
		if next > m.P.MaxCycles {
			m.Now = m.P.MaxCycles
			return false, m.watchdogErr()
		}
		m.Now = next

		// Collect the due cores in ID order: readyNext is built in ID
		// order; wheel pops are sorted after the drain.
		popped = wheel.drain(m, m.Now, popped[:0])
		sortByID(popped)
		// Most cycles draw due cores from a single source; merge only when
		// a stall expiry lands on a cycle that already has runnable cores.
		switch {
		case len(popped) == 0:
			ready, readyNext = readyNext, ready[:0]
		case len(readyNext) == 0:
			ready, popped = popped, ready[:0]
			readyNext = readyNext[:0]
		default:
			ready = mergeByID(ready[:0], readyNext, popped)
			readyNext = readyNext[:0]
		}

		for i := 0; i < len(ready); i++ {
			id := ready[i]
			// Re-check the schedule at the core's turn: an earlier core's
			// execution this cycle may have aborted (and rescheduled) it,
			// exactly as under lockstep order, and a duplicate due-entry must
			// not execute twice. The wake slot is checked before the core is
			// loaded — stale entries cost one array read, not a cache miss.
			if wakes[id] != m.Now {
				continue
			}
			c := m.Cores[id]
			if c.halted || c.barrierWait {
				continue
			}
			if m.Now <= c.stallUntil {
				// Re-stalled after scheduling (defensive: abort reschedules).
				wakes[c.ID] = c.stallUntil + 1
				wheel.push(wakeKey(wakes[c.ID], c.ID), m.Now)
				continue
			}
			m.settle(c, m.Now-1)
			c.attributedUntil = m.Now
			m.execID = c.ID
			m.exec(c)
			winExec++
			switch {
			case c.halted:
				halted++
				wakes[c.ID] = parked
			case c.barrierWait:
				wakes[c.ID] = parked // woken by the release, via pendingWakes
			case c.parkedAt != 0:
				wakes[c.ID] = parked // woken by its holder's commit or abort
			case c.stallUntil > m.Now:
				wakes[c.ID] = c.stallUntil + 1
				wheel.push(wakeKey(wakes[c.ID], c.ID), m.Now)
			default:
				wakes[c.ID] = m.Now + 1
				readyNext = append(readyNext, c.ID)
			}
			if len(m.wokeNow) > 0 {
				ready = m.foldWokeNow(ready)
			}
		}
		if m.syncDirty {
			m.releaseBarrier()
		}
		if m.hookErr != nil {
			return false, m.hookErr
		}
		// Adopt mid-cycle reschedules (remote aborts, barrier releases).
		// Reschedules landing on Now+1 (a barrier release, or a remote
		// abort under a zero backoff) join readyNext, which must stay
		// ID-sorted — the adopted IDs can be lower than cores already
		// appended by this cycle's execution.
		adopted := false
		for _, id := range m.pendingWakes {
			if !m.Cores[id].halted && wakes[id] > m.Now {
				if wakes[id] == m.Now+1 {
					readyNext = append(readyNext, id)
					adopted = true
				} else {
					wheel.push(wakeKey(wakes[id], id), m.Now)
				}
			}
		}
		if adopted {
			sortByID(readyNext)
		}
		m.pendingWakes = m.pendingWakes[:0]
		if m.Now-winStart >= denseWindow {
			if m.interrupted.Load() {
				return false, m.interruptedErr()
			}
			if halted < n && winExec*100 >= denseEnterPct*(m.Now-winStart)*int64(n-halted) {
				return false, nil
			}
			winStart, winExec = m.Now, 0
		}
	}
	return true, nil
}

// wakeKey packs a schedule entry into one int64: wake<<6 | core ID.
// Params.Validate caps Cores at 64, so the ID fits 6 bits and the natural
// int64 ordering is exactly the (wake, id) order — overflow-heap sifts
// are single integer compares.
func wakeKey(wake int64, id int) wakeKeyed { return wakeKeyed(wake<<6 | int64(id)) }

func (e wakeKeyed) wake() int64 { return int64(e) >> 6 }
func (e wakeKeyed) id() int     { return int(e & 63) }

type wakeKeyed int64

// Timing-wheel geometry: one slot per cycle over a horizon that covers
// every common stall (NACK retries, abort backoffs, cache misses, DRAM
// with occupancy queuing). Longer wakes — rare multi-thousand-cycle
// commit repairs — go to the overflow heap.
const (
	wheelBits = 10
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// wakeWheel is the large-machine wake queue: a single-level timing wheel
// (bucket ring indexed by cycle mod wheelSize, with an occupancy bitmap
// for O(words) next-event scans) plus a min-heap overflow for wakes
// beyond the horizon. Slot membership is unambiguous: every pushed wake
// lies at most wheelSize cycles ahead, and the scan never skips an
// occupied slot, so when a slot comes due all its entries share that due
// cycle.
type wakeWheel struct {
	slots [wheelSize][]wakeKeyed
	bits  [wheelSize / 64]uint64
	over  wakeHeap
}

func newWakeWheel() *wakeWheel { return &wakeWheel{} }

// reset empties the wheel in place, keeping every slot's backing array —
// the wheel lives on the Machine and is reused run to run, so steady-state
// pushes allocate nothing. The occupancy bitmap names exactly the
// non-empty slots, so clearing is O(occupied), not O(wheelSize).
func (w *wakeWheel) reset() {
	for wi, word := range w.bits {
		for ; word != 0; word &= word - 1 {
			s := wi<<6 + bits.TrailingZeros64(word)
			w.slots[s] = w.slots[s][:0]
		}
		w.bits[wi] = 0
	}
	w.over = w.over[:0]
}

func (w *wakeWheel) push(e wakeKeyed, now int64) {
	if e.wake()-now > wheelSize {
		w.over.push(e)
		return
	}
	s := int(e.wake()) & wheelMask
	w.slots[s] = append(w.slots[s], e)
	w.bits[s>>6] |= 1 << (s & 63)
}

// nextWake returns the earliest live wake after now, or neverWakes.
func (w *wakeWheel) nextWake(m *Machine, now int64) int64 {
	next := neverWakes
	for len(w.over) > 0 {
		if wk := w.over[0].wake(); m.wakes[w.over[0].id()] == wk {
			next = wk
			break
		}
		w.over.pop() // stale: the core was rescheduled after this entry
	}
	// First occupied slot in circular order after now. The +1 iteration
	// re-covers the starting word's low bits after a full wrap.
	start := int(now+1) & wheelMask
	wi := start >> 6
	word := w.bits[wi] &^ (1<<(start&63) - 1)
	for k := 0; k <= wheelSize/64; k++ {
		if word != 0 {
			idx := wi<<6 + bits.TrailingZeros64(word)
			d := int64((idx - start) & wheelMask)
			return min(next, now+1+d)
		}
		wi = (wi + 1) & (wheelSize/64 - 1)
		word = w.bits[wi]
	}
	return next
}

// drain appends the IDs of cores due at cycle now (stale entries dropped)
// and returns the extended slice. Callers sort it afterwards.
func (w *wakeWheel) drain(m *Machine, now int64, popped []int) []int {
	for len(w.over) > 0 && w.over[0].wake() <= now {
		e := w.over.pop()
		if m.wakes[e.id()] == e.wake() {
			popped = append(popped, e.id())
		}
	}
	s := int(now) & wheelMask
	if w.bits[s>>6]&(1<<(s&63)) != 0 {
		for _, e := range w.slots[s] {
			if m.wakes[e.id()] == e.wake() {
				popped = append(popped, e.id())
			}
		}
		w.slots[s] = w.slots[s][:0]
		w.bits[s>>6] &^= 1 << (s & 63)
	}
	return popped
}

// sortByID insertion-sorts a (small) due list into core-ID order.
func sortByID(ids []int) {
	for i := 1; i < len(ids); i++ {
		v := ids[i]
		j := i - 1
		for j >= 0 && ids[j] > v {
			ids[j+1] = ids[j]
			j--
		}
		ids[j+1] = v
	}
}

// wakeHeap is a binary min-heap of packed wake keys.
type wakeHeap []wakeKeyed

func (h *wakeHeap) push(e wakeKeyed) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p] <= q[i] {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *wakeHeap) pop() wakeKeyed {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	*h = q
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(q) && q[l] < q[s] {
			s = l
		}
		if r < len(q) && q[r] < q[s] {
			s = r
		}
		if s == i {
			break
		}
		q[i], q[s] = q[s], q[i]
		i = s
	}
	return top
}

// mergeByID merges two sorted ID lists into dst.
func mergeByID(dst, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// settle bulk-attributes core c's unaccounted cycles through cycle upTo
// to its current wait category — the lazy equivalent of what the lockstep
// stepper charges one cycle at a time, including the in-transaction
// busy/other accumulators that abort reattribution depends on. It is a
// no-op outside the event scheduler (attributedUntil is maintained only
// under lazy attribution) and on fully-settled cores.
//
//retcon:hotpath runs at every lazy-attribution observation point
func (m *Machine) settle(c *Core, upTo int64) {
	n := upTo - c.attributedUntil
	if n <= 0 {
		return
	}
	cat := c.stallCat
	if c.barrierWait {
		cat = CatBarrier
	}
	c.chargeCycles(cat, n)
	c.attributedUntil = upTo
}

// park takes core c, whose access was just NACKed at cycle Now, off the
// retry poll: instead of re-executing the access every NackRetry cycles,
// it waits on the transaction of the holder that vetoed it, and the loop
// gives it no timed wake. Only the end of that transaction can lift the
// veto — a holder's spec bits only grow while it runs, a spec-marked
// block never becomes symbolically tracked, and the holder leaves the
// block's target set only when a winning request aborts it — so every
// retry polled before then would NACK again, with effects unpark
// reproduces in bulk.
//
//retcon:hotpath runs at every NACK under the event scheduler
func (m *Machine) park(c *Core) {
	c.parkedAt = m.Now
	m.Cores[c.nackHolder].waiters |= 1 << uint(c.ID)
}

// unpark ends c's parked wait so that it next retries at the first point
// of its retry grid parkedAt + k·NackRetry (k >= 1) at or after cycle
// from, and returns that cycle. The k-1 retries the poll loop would have
// run before it all NACK, so they are accounted in bulk exactly as each
// would have been: one instruction and one NACK, plus one predictor
// conflict outside eager mode. Their cycles need nothing here: c's stall
// category stays CatConflict, so settle charges them as polling would.
//
//retcon:hotpath runs at every wake of a parked core
func (m *Machine) unpark(c *Core, from int64) int64 {
	r := m.P.NackRetry
	k := max((from-c.parkedAt+r-1)/r, 1)
	if skipped := k - 1; skipped > 0 {
		c.Stats.Instrs += skipped
		c.Stats.Nacks += skipped
		if m.P.Mode != Eager {
			c.Pred.ObserveConflictN(c.nackBlock, skipped)
		}
		m.schedStats.SkippedRetries += skipped
	}
	m.Cores[c.nackHolder].waiters &^= 1 << uint(c.ID)
	g := c.parkedAt + k*r
	c.parkedAt = 0
	c.stallUntil = g - 1
	return g
}

// turnFrom is the first cycle at which core c can next execute, seen from
// inside core execID's turn at cycle Now: Now itself when c's turn this
// cycle is still ahead (a higher ID), Now+1 when it has passed.
func (m *Machine) turnFrom(c *Core) int64 {
	if c.ID > m.execID {
		return m.Now
	}
	return m.Now + 1
}

// wakeWaiters unparks every core parked on h's transaction, which has
// just committed or aborted during core execID's turn at cycle Now. Each
// waiter retries at the first point of its grid its poll would have
// reached after this event. That is Now itself only when Now is on its
// grid and its turn is still ahead; it then goes to wokeNow, which the
// loop folds into the current cycle's due list (see foldWokeNow). Later
// wakes go through the wake table and pendingWakes, like any mid-cycle
// reschedule.
func (m *Machine) wakeWaiters(h *Core) {
	for w := h.waiters; w != 0; w &= w - 1 {
		c := m.Cores[bits.TrailingZeros64(w)]
		g := m.unpark(c, m.turnFrom(c))
		m.wakes[c.ID] = g
		if g == m.Now {
			m.wokeNow = append(m.wokeNow, c.ID)
			continue
		}
		if g < m.minStall {
			m.minStall = g
		}
		m.pendingWakes = append(m.pendingWakes, c.ID)
	}
}

// foldWokeNow inserts the cores woken into the current cycle during the
// executing core's turn into the cycle's ID-sorted due list and returns
// it. Every such core has a higher ID than the executing one, so each
// lands after it and still gets its turn this cycle. The loops keep the
// due list in a local, not on the Machine, so that swapping lists each
// cycle pays no GC write barrier; this rare fold is the price.
func (m *Machine) foldWokeNow(ready []int) []int {
	for _, id := range m.wokeNow {
		ready = append(ready, id)
		i := len(ready) - 1
		for ; i > 0 && ready[i-1] > id; i-- {
			ready[i] = ready[i-1]
		}
		ready[i] = id
	}
	m.wokeNow = m.wokeNow[:0]
	return ready
}
