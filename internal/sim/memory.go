package sim

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// accessStatus is the outcome of a memory request.
type accessStatus int

const (
	accessOK    accessStatus = iota
	accessNack               // requester lost contention and must retry (state unchanged)
	accessAbort              // requester's transaction was aborted (self-abort)
)

// coherentRequest performs the directory transaction for core c acquiring
// block with read or write intent. It runs conflict detection against every
// core whose copy must be downgraded or invalidated, applying the paper's
// contention policy: non-transactional requests and older transactions win;
// a losing transactional requester is NACKed (allowNack) or, during the
// pre-commit repair process, aborted.
//
// It returns the directory latency and the outcome. On accessOK all remote
// state (invalidations, symbolic losses, aborts of losers) has been applied.
//
//retcon:hotpath directory access under every cache miss or upgrade
func (m *Machine) coherentRequest(c *Core, block int64, isWrite, allowNack bool) (int64, accessStatus) {
	// Collect the cores holding copies that conflict with this request.
	m.targetsBuf = m.targetsBuf[:0]
	if isWrite {
		m.targetsBuf = m.Dir.WriteTargets(c.ID, block, m.targetsBuf)
	} else if o := m.Dir.ReadTargets(c.ID, block); o != coherence.NoOwner {
		m.targetsBuf = append(m.targetsBuf, o)
	}

	// Pass 1: can any holder veto the request? A holder with conflicting
	// speculative bits and an older timestamp wins; blocks tracked
	// symbolically by the holder never veto (RETCON releases them).
	for _, h := range m.targetsBuf {
		hc := m.Cores[h]
		if !hc.Tx.Active {
			continue
		}
		if hc.Ret.Tracked(block) != nil {
			continue // symbolically tracked: released without conflict
		}
		sb, ok := hc.Tx.Spec.Get(block)
		if !ok {
			continue
		}
		hazard := sb.Written || (isWrite && sb.Read)
		if !hazard {
			continue
		}
		requesterWins := !c.Tx.Active || olderWins(c, hc)
		if requesterWins {
			continue
		}
		// Holder wins: requester is stalled (or aborted during pre-commit).
		m.observeConflict(c, block)
		if allowNack {
			c.Stats.Nacks++
			c.nackHolder, c.nackBlock = h, block
			if m.rec != nil {
				m.rec.Emit(telemetry.Event{Cycle: m.Now, Core: int32(c.ID), Kind: telemetry.KindNack, Block: block, A: int64(h)})
			}
			return 0, accessNack
		}
		m.abort(c, block, telemetry.CauseConflict)
		return 0, accessAbort
	}

	// Pass 2: apply. Losing holders abort; symbolic holders lose the block;
	// plain copies are invalidated (write) or downgraded (read).
	for _, h := range m.targetsBuf {
		hc := m.Cores[h]
		if hc.Tx.Active && hc.Ret.Tracked(block) != nil {
			if isWrite {
				if hc.Ret.MarkLost(block) && m.rec != nil {
					m.rec.Emit(telemetry.Event{Cycle: m.Now, Core: int32(hc.ID), Kind: telemetry.KindRelease, Block: block, A: int64(c.ID)})
				}
			}
		} else if hc.Tx.Active {
			if sb, ok := hc.Tx.Spec.Get(block); ok && (sb.Written || (isWrite && sb.Read)) {
				m.abort(hc, block, telemetry.CauseConflict)
			}
		}
		if isWrite {
			hc.Hier.Invalidate(block)
		}
	}

	var lat int64
	if isWrite {
		lat = m.Dir.ApplyWrite(c.ID, block, m.Now)
	} else {
		lat = m.Dir.ApplyRead(c.ID, block, m.Now)
	}
	return lat, accessOK
}

// olderWins reports whether requester c beats holder h under the
// oldest-transaction-wins policy.
func olderWins(c, h *Core) bool {
	if c.Tx.TS != h.Tx.TS {
		return c.Tx.TS < h.Tx.TS
	}
	return c.ID < h.ID
}

// memAccess performs the cache-hierarchy plus (if needed) directory access
// for core c touching block. setSpec marks the transaction's speculative
// bit. It returns the total latency and the outcome.
//
// A NACKed miss memoizes its probe (nackProbe*): the retry re-issues the
// identical access, and a miss cannot become a hit while the core is
// stalled — only the core's own fills insert into its private hierarchy —
// so re-walking both cache levels on every retry would burn time on
// exactly the conflict-heavy runs the event scheduler targets. Probes
// that hit are never memoized (their LRU-stamp updates are architectural
// input to later victim choices); a skipped miss-probe touches no LRU
// state, so replaying it is unobservable.
//
//retcon:hotpath every load and store funnels through here
func (m *Machine) memAccess(c *Core, block int64, isWrite, setSpec, allowNack bool) (int64, accessStatus) {
	var hlat int64
	missToDir := true
	if c.nackProbeValid && c.nackProbeBlock == block {
		hlat = c.nackProbeLat
	} else {
		hlat, missToDir = c.Hier.Probe(block)
	}
	c.nackProbeValid = false
	needDir := missToDir
	if isWrite && !needDir {
		// A cached copy does not imply write permission; only the modified
		// owner may write silently.
		if e, ok := m.Dir.Peek(block); !ok || e.State != coherence.Modified || e.Owner != c.ID {
			needDir = true
		}
	}
	lat := hlat
	if needDir {
		dlat, st := m.coherentRequest(c, block, isWrite, allowNack)
		if st != accessOK {
			if st == accessNack && missToDir {
				c.nackProbeValid = true
				c.nackProbeBlock = block
				c.nackProbeLat = hlat
			}
			return 0, st
		}
		lat += dlat
		c.Hier.Fill(block)
	}
	if setSpec && c.Tx.Active {
		if !c.Tx.Spec.Mark(block, isWrite) {
			// Speculative-metadata overflow: abort (OneTM fallback). This
			// never fires on the paper workloads; the statistic proves it.
			c.Stats.Overflows++
			m.abort(c, -1, telemetry.CauseSpecOverflow)
			return 0, accessAbort
		}
	}
	return lat, accessOK
}

// extractBytes pulls an aligned size-byte field out of a 64-bit word.
func extractBytes(word int64, addr int64, size uint8) int64 {
	if size == 8 {
		return word
	}
	shift := uint((addr & 7) * 8)
	mask := int64(1)<<(8*uint(size)) - 1
	return (word >> shift) & mask
}

// mergeBytes stores an aligned size-byte value into a 64-bit word.
func mergeBytes(word int64, addr int64, size uint8, v int64) int64 {
	if size == 8 {
		return v
	}
	shift := uint((addr & 7) * 8)
	mask := (int64(1)<<(8*uint(size)) - 1) << shift
	return (word &^ mask) | ((v << shift) & mask)
}

func checkAligned(addr int64, size uint8) {
	if addr&int64(size-1) != 0 {
		panic(fmt.Sprintf("sim: unaligned %d-byte access at %#x", size, addr))
	}
}

// load performs a load for core c. It returns the loaded value, its
// symbolic value (RETCON mode only), the latency, and the outcome.
func (m *Machine) load(c *Core, addr int64, size uint8) (val int64, sym core.SymVal, lat int64, st accessStatus) {
	checkAligned(addr, size)
	block := mem.BlockOf(addr)
	word := mem.WordAddr(addr)
	inTx := c.Tx.Active
	symbolicMode := inTx && m.P.Mode != Eager

	if symbolicMode {
		// Symbolic store-to-load bypass (Figure 6, leftmost path).
		if e := c.Ret.Store(word); e != nil {
			if size == 8 {
				return e.Val, e.Sym, 1, accessOK
			}
			// Sub-word read of a buffered word: pin any symbolic data and
			// extract concretely.
			if e.Sym.Valid && !c.Ret.PinSym(e.Sym) {
				return m.structOverflowAbort(c, e.Sym.Root)
			}
			return extractBytes(e.Val, addr, size), core.SymVal{}, 1, accessOK
		}
		// Symbolic load from a tracked block (Figure 6, second path).
		if ivb := c.Ret.Tracked(block); ivb != nil {
			w := ivb.Word(word)
			if size == 8 && !c.Ret.Cfg.Lazy {
				return w, core.Sym(word), 1, accessOK
			}
			// lazy-vb (value-based) or sub-word: pin the word's value.
			if !c.Ret.Constrain(word, core.Point(w)) {
				return m.structOverflowAbort(c, word)
			}
			return extractBytes(w, addr, size), core.SymVal{}, 1, accessOK
		}
		// Initial symbolic load: predictor-selected block with no
		// speculative bits yet (Figure 6, third path).
		if c.Pred.Tracks(block) && !c.Tx.Spec.Has(block) {
			alat, ast := m.memAccess(c, block, false, false, true)
			if ast != accessOK {
				return 0, core.SymVal{}, 0, ast
			}
			if ivb, ok := c.Ret.Track(block, m.Mem); ok {
				if m.rec != nil {
					m.rec.Emit(telemetry.Event{Cycle: m.Now, Core: int32(c.ID), Kind: telemetry.KindTrack, Tx: c.Tx.TS, Block: block})
				}
				w := ivb.Word(word)
				if size == 8 && !c.Ret.Cfg.Lazy {
					return w, core.Sym(word), alat, accessOK
				}
				if !c.Ret.Constrain(word, core.Point(w)) {
					return m.structOverflowAbort(c, word)
				}
				return extractBytes(w, addr, size), core.SymVal{}, alat, accessOK
			}
			// IVB full: fall through to a normal (conflict-detected) load.
			if !c.Tx.Spec.Mark(block, false) {
				c.Stats.Overflows++
				m.abort(c, -1, telemetry.CauseSpecOverflow)
				return 0, core.SymVal{}, 0, accessAbort
			}
			return m.Mem.ReadInt(addr, size), core.SymVal{}, alat, accessOK
		}
	}

	// Normal load.
	alat, ast := m.memAccess(c, block, false, inTx, true)
	if ast != accessOK {
		return 0, core.SymVal{}, 0, ast
	}
	return m.Mem.ReadInt(addr, size), core.SymVal{}, alat, accessOK
}

// store performs a store for core c of data (with symbolic value dataSym in
// RETCON mode). It returns the latency and outcome.
func (m *Machine) store(c *Core, addr int64, size uint8, data int64, dataSym core.SymVal) (lat int64, st accessStatus) {
	checkAligned(addr, size)
	block := mem.BlockOf(addr)
	word := mem.WordAddr(addr)
	inTx := c.Tx.Active
	symbolicMode := inTx && m.P.Mode != Eager

	if symbolicMode {
		tracked := c.Ret.Tracked(block) != nil
		haveSSB := c.Ret.Store(word) != nil
		if dataSym.Valid && size != 8 {
			// Sub-word store of symbolic data: untrackable; pin and drop.
			if !c.Ret.PinSym(dataSym) {
				_, _, _, st = m.structOverflowAbort(c, dataSym.Root)
				return 0, st
			}
			dataSym = core.SymVal{}
		}
		if tracked || haveSSB || dataSym.Valid {
			// Buffer in the symbolic store buffer (Figure 6, store path).
			valWord := data
			symOut := dataSym
			if size != 8 {
				cur, curSym, fromIVB, ok := m.currentWord(c, word, tracked)
				if !ok {
					// The word's prior contents are unknown without a
					// coherence read; pin nothing — fall back to a normal
					// store (only possible when the block is untracked).
					return m.normalStore(c, addr, size, data)
				}
				if curSym.Valid && !c.Ret.PinSym(curSym) {
					_, _, _, st = m.structOverflowAbort(c, curSym.Root)
					return 0, st
				}
				if fromIVB {
					// The unwritten bytes of the merged word come from the
					// transaction-initial IVB snapshot of a block RETCON may
					// release to remote writers without conflict. The merge
					// is only valid at commit if the word still holds that
					// value, so pin it with an equality constraint —
					// otherwise the repair overwrites a remote core's
					// conflict-free bytes with stale ones (fuzz-found
					// lost-update bug; corpus: subword-lane-stale-merge).
					if !c.Ret.Constrain(word, core.Point(cur)) {
						_, _, _, st = m.structOverflowAbort(c, word)
						return 0, st
					}
				}
				valWord = mergeBytes(cur, addr, size, data)
				symOut = core.SymVal{}
			}
			if c.Ret.PutStore(word, valWord, symOut) {
				return 1, accessOK
			}
			// SSB full. A store to a tracked block must abort — and train
			// the predictor down on that block, or the retry re-tracks it
			// into the identical overflow and the core livelocks until the
			// watchdog (fuzz-found; corpus: ssb-overflow-livelock). An
			// untracked store just falls back to the eager path, which is
			// not an abort and must not count as one (fuzz-found
			// accounting bug; the stats oracle pins overflow+violation
			// counts <= aborts).
			if tracked {
				_, _, _, st = m.structOverflowAbort(c, word)
				return 0, st
			}
			if symOut.Valid && !c.Ret.PinSym(symOut) {
				_, _, _, st = m.structOverflowAbort(c, symOut.Root)
				return 0, st
			}
			return m.normalStore(c, addr, size, data)
		}
	}

	return m.normalStore(c, addr, size, data)
}

// currentWord returns the current full-word contents at word for sub-word
// merging, preferring the SSB, then the IVB. fromIVB distinguishes the
// IVB source: those bytes are a transaction-initial snapshot and the
// caller must pin the word. ok=false means the word is not buffered
// anywhere (untracked block).
func (m *Machine) currentWord(c *Core, word int64, tracked bool) (v int64, sym core.SymVal, fromIVB, ok bool) {
	if e := c.Ret.Store(word); e != nil {
		return e.Val, e.Sym, false, true
	}
	if tracked {
		ivb := c.Ret.Tracked(mem.BlockOf(word))
		return ivb.Word(word), core.SymVal{}, true, true
	}
	return 0, core.SymVal{}, false, false
}

// normalStore is the eager-path store: acquire write permission, set the
// speculatively-written bit, log the old bytes for rollback, and update the
// architectural image.
func (m *Machine) normalStore(c *Core, addr int64, size uint8, data int64) (int64, accessStatus) {
	block := mem.BlockOf(addr)
	lat, st := m.memAccess(c, block, true, c.Tx.Active, true)
	if st != accessOK {
		return 0, st
	}
	if c.Tx.Active {
		c.Tx.LogStore(addr, size, m.Mem.ReadInt(addr, size))
	}
	m.Mem.WriteInt(addr, size, data)
	return lat, accessOK
}

// structOverflowAbort aborts the transaction because a RETCON structure
// (constraint buffer) overflowed, training the predictor down on the root
// block so the workload does not livelock on the same overflow.
func (m *Machine) structOverflowAbort(c *Core, rootWord int64) (int64, core.SymVal, int64, accessStatus) {
	c.RetAgg.StructureOverflowAborts++
	m.trainDown(c, rootWord)
	m.abort(c, -1, telemetry.CauseStructOverflow)
	return 0, core.SymVal{}, 0, accessAbort
}
