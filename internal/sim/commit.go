package sim

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// commit executes TXCOMMIT for core c. In eager mode (or when no symbolic
// state exists) this is the baseline instantaneous commit. Otherwise it
// runs RETCON's pre-commit repair (Figure 7):
//
//	Step 1: reacquire every tracked block (setting speculative read bits so
//	        the repair is atomic), refresh the initial value buffer with
//	        final concrete values, and validate all control-flow
//	        constraints — a violation aborts and trains the predictor down.
//	Step 2: drain the symbolic store buffer, evaluating symbolic store
//	        values against the final root values and performing the writes
//	        as ordinary speculative stores; then repair symbolic registers.
//
// The whole repair executes atomically within this core's simulation step;
// its latency (serial reacquire, serial stores, per §5.1's conservative
// assumption) stalls the core afterwards in the "other" category and is
// recorded for Table 3.
//
//retcon:hotpath runs at every TXCOMMIT
func (m *Machine) commit(c *Core) {
	if !c.Ret.Empty() {
		m.commitRepair(c)
		return
	}
	// Baseline commit. Under symbolic modes, transactions that happened to
	// track nothing still count toward the Table 3 per-transaction
	// averages.
	c.addCycle(CatBusy)
	if m.P.Mode != Eager {
		c.RetAgg.record(core.TxStats{}, m.Now-c.Tx.StartCycle+1)
	}
	m.finishCommit(c, 0, m.Now-c.Tx.StartCycle+1)
}

//retcon:hotpath the pre-commit repair drain (Figure 7)
func (m *Machine) commitRepair(c *Core) {
	stats := c.Ret.Stats() // capture Lost flags before reacquire clears them

	var repairLat int64
	var maxReacquire int64

	// Step 1: reacquire tracked blocks. The IVB is kept sorted by block, so
	// iterating it is already the deterministic address order Figure 7
	// requires — no keys to collect, no sort.
	ivb := c.Ret.TrackedBlocks()
	for i := range ivb {
		e := &ivb[i]
		// The written-bit optimization (§4.4): reacquire with write intent
		// when the block will also be stored to, avoiding an upgrade miss.
		lat, st := m.memAccess(c, e.Block, e.Written, true, false)
		if st != accessOK {
			return // aborted by an older conflicting transaction
		}
		if e.Written {
			if !c.Tx.Spec.Mark(e.Block, false) { // also mark read for atomicity
				c.Stats.Overflows++
				m.abort(c, -1, telemetry.CauseSpecOverflow)
				return
			}
		}
		repairLat += lat
		if lat > maxReacquire {
			maxReacquire = lat
		}
		m.Mem.ReadBlockWords(e.Block<<mem.BlockShift, &e.Words)
		e.Lost = false
	}
	if m.P.IdealParallelReacquire {
		repairLat = maxReacquire
	}

	// Constraint validation against final values.
	if w := c.Ret.CheckConstraints(); w >= 0 {
		c.RetAgg.ConstraintViolations++
		m.trainDown(c, w)
		if m.rec != nil {
			iv, _ := c.Ret.ConstraintOn(w)
			m.rec.Emit(telemetry.Event{Cycle: m.Now, Core: int32(c.ID), Kind: telemetry.KindViolate,
				Tx: c.Tx.TS, Block: w, A: c.Ret.RootVal(w), B: iv.Lo, C: iv.Hi})
		}
		m.abort(c, -1, telemetry.CauseConstraintViolation)
		return
	}

	// Step 2: drain the symbolic store buffer, sorted by word address.
	ssb := c.Ret.Stores()
	for i := range ssb {
		e := &ssb[i]
		lat, st := m.memAccess(c, mem.BlockOf(e.WordAddr), true, true, false)
		if st != accessOK {
			return // aborted
		}
		if !m.P.IdealZeroStoreLatency {
			repairLat += lat
		}
		v := e.Val
		if e.Sym.Valid {
			v = c.Ret.EvalSym(e.Sym)
		}
		c.Tx.LogStore(e.WordAddr, 8, m.Mem.Read64(e.WordAddr))
		m.Mem.Write64(e.WordAddr, v)
	}

	// Repair symbolic registers with final values, walking only the
	// registers the transaction touched.
	for mask := c.Ret.TouchedRegs(); mask != 0; mask &= mask - 1 {
		r := bits.TrailingZeros32(mask)
		if s := c.Ret.Regs[r]; s.Valid {
			c.Regs[r] = c.Ret.EvalSym(s)
		}
	}

	stats.CommitCycles = repairLat
	// The repair-vs-replay delta: a replay would re-spend every cycle the
	// attempt accumulated; the repair spends repairLat instead. The
	// accumulators are exact here under both schedulers — the committing
	// core is the executing core, which lazy attribution settles before
	// exec — so the histogram is scheduler-invariant like the rest of the
	// registry.
	m.metrics.RepairLat.Observe(repairLat)
	m.metrics.RepairDelta.Observe(c.Tx.AccumBusy + c.Tx.AccumOther - repairLat)
	if m.rec != nil {
		m.rec.Emit(telemetry.Event{Cycle: m.Now, Core: int32(c.ID), Kind: telemetry.KindRepair, Tx: c.Tx.TS,
			A: int64(stats.BlocksTracked), B: int64(stats.BlocksLost),
			C: int64(stats.PrivateStores), D: int64(stats.ConstraintAddrs), E: repairLat})
	}
	c.addCycle(CatBusy)
	txCycles := m.Now - c.Tx.StartCycle + 1 + repairLat
	c.RetAgg.record(stats, txCycles)
	m.finishCommit(c, repairLat, txCycles)
}

// finishCommit makes the transaction permanent and stalls the core for the
// repair latency — under the event scheduler that stall is a single wake
// event whose cycles are bulk-attributed, not stepped.
//
//retcon:hotpath runs at every transaction commit
func (m *Machine) finishCommit(c *Core, repairLat, txCycles int64) {
	if m.rec != nil {
		m.rec.Emit(telemetry.Event{Cycle: m.Now, Core: int32(c.ID), Kind: telemetry.KindCommit, Tx: c.Tx.TS, A: txCycles})
	}
	c.PC++
	if m.commitHook != nil && m.hookErr == nil {
		// Observe while the undo log is intact and before version-management
		// state is discarded; PC already points past the TXCOMMIT.
		if err := m.commitHook(m, c); err != nil {
			m.hookErr = err
		}
	}
	c.Tx.Commit()
	if c.waiters != 0 {
		m.wakeWaiters(c)
	}
	c.Ret.Reset()
	c.pendingTS = 0
	c.Stats.Commits++
	if repairLat > 0 {
		c.setStall(m.Now+repairLat, CatOther)
	}
}
