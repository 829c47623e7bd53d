// Package fuzz is the differential-fuzzing subsystem: a seeded random
// program generator over internal/isa plus a multi-oracle harness that
// cross-checks the simulator against itself.
//
// The generator emits machine configurations — bounded loops,
// TXBEGIN/TXCOMMIT regions, shared-counter and hash-probe idioms,
// byte-lane stores, barriers, cross-core data races by construction —
// whose architecturally-correct outcome is computable statically. Each
// configuration is run under three oracles:
//
//  1. Scheduler differential: the lockstep reference scheduler and the
//     event-driven time-skip scheduler must produce byte-identical
//     Results, traces and final memory images (PR 2's equivalence claim,
//     on generated rather than hand-written inputs). The event scheduler
//     runs twice: traced, where NACKed cores poll, and untraced, where
//     they park on their holder's transaction.
//  2. Serial-HTM vs RETCON: the eager baseline, the lazy-vb ablation and
//     full RETCON must all commit the statically-expected final shared
//     state (counters sum, byte lanes last-write, hash table contains
//     every key exactly once). On top of the final-image check, a replay
//     oracle re-executes every committed transaction functionally at its
//     commit instant and requires the committed architectural state to
//     equal the replayed one — the paper's §4 correctness argument
//     ("symbolic repair must commit the same state a replayed execution
//     would"), checked mechanically.
//  3. Statistics invariants: cycle-attribution sums, commit/abort
//     accounting and the RETCON aggregate bookkeeping must be internally
//     consistent.
//
// Any divergence is minimized by the shrinker into a small reproducer
// that can be committed under testdata/corpus/ and replayed forever by
// the corpus test.
package fuzz

import (
	"fmt"

	"repro/internal/mem"
)

// Stmt kinds. See Prog.
const (
	KTx      = "tx"      // transaction: Body inside TXBEGIN/TXCOMMIT
	KLoop    = "loop"    // repeat Body N times
	KBusy    = "busy"    // private busy loop of N iterations
	KBarrier = "barrier" // global barrier (top level only)
	KAdd     = "add"     // counter[Tgt] += N (tx only); leaves value in rLast
	KBranch  = "branch"  // load counter[Tgt] (or rLast if Tgt<0), +Pre, compare Cmp against Rhs; Body if taken (tx only)
	KProbe   = "probe"   // insert key N into the hash table by linear probing (tx only)
	KLane    = "lane"    // store N into this core's byte lane of lane word Tgt (tx only)
	KSave    = "save"    // store rLast to private word Tgt (tx only)
	KPriv    = "priv"    // store constant N into private word Tgt with Size
)

// Stmt is one statement of the generator's intermediate representation.
// The set of fields that matter depends on Kind; unused fields stay zero
// so the JSON form is compact.
type Stmt struct {
	Kind string `json:"k"`
	N    int64  `json:"n,omitempty"`    // loop count / busy iters / add delta / probe key / stored value
	Tgt  int    `json:"t,omitempty"`    // shared word index / private word index
	Pre  int64  `json:"pre,omitempty"`  // branch: constant added before the compare
	Cmp  string `json:"cmp,omitempty"`  // branch: beq bne blt bge ble bgt
	Rhs  int64  `json:"rhs,omitempty"`  // branch: compared-against constant
	Size uint8  `json:"sz,omitempty"`   // lane/priv access size (1, 2, 4; priv also 8)
	Body []Stmt `json:"body,omitempty"` // tx / loop / branch
}

// WordSpec describes one word of the shared region. Counter words receive
// 8-byte read-modify-write adds; lane words receive sub-word stores into
// per-core byte lanes. Both kinds may share a cache block, which is how
// the generator manufactures false sharing and symbolic-tracking overlap.
type WordSpec struct {
	Lane bool  `json:"lane,omitempty"`
	Init int64 `json:"init,omitempty"`
}

// Prog is a generated machine configuration: the shared-memory layout and
// one statement list per core. It is the unit the shrinker minimizes and
// the corpus serializes.
type Prog struct {
	Seed       int64      `json:"seed"` // generator seed (provenance only)
	Cores      int        `json:"cores"`
	Words      []WordSpec `json:"words"`
	TableSlots int        `json:"table_slots,omitempty"`
	// RETCON structure-size overrides; 0 keeps the Table 1 default.
	IVB        int      `json:"ivb,omitempty"`
	Constraint int      `json:"constraint,omitempty"`
	SSB        int      `json:"ssb,omitempty"`
	Threads    [][]Stmt `json:"threads"`
}

// expect is the statically-computed architectural outcome of a Prog: what
// the shared region must hold after any correct execution, and how many
// transactions each core must commit.
type expect struct {
	counters map[int]int64 // shared word index -> final value
	lanes    map[int]int64 // lane word index -> final word value
	keys     []int64       // every probed key (globally distinct)
	commits  []int64       // per-core committed-transaction count
}

// Validate structurally checks the program: statement nesting, target
// ranges, lane ownership, key distinctness and rLast def-before-use. The
// same walk computes the expected outcome, so a valid program always has
// one.
func (p *Prog) Validate() error {
	_, err := p.expectations()
	return err
}

const (
	maxCores     = 64 // the simulator's limit; GenOptions.MaxCores picks the campaign's
	maxLoopN     = 16
	maxBusyN     = 256
	maxLoopDepth = 2
	privWords    = 8
)

func (p *Prog) expectations() (*expect, error) {
	if p.Cores < 1 || p.Cores > maxCores {
		return nil, fmt.Errorf("fuzz: cores %d out of [1,%d]", p.Cores, maxCores)
	}
	if len(p.Threads) != p.Cores {
		return nil, fmt.Errorf("fuzz: %d threads for %d cores", len(p.Threads), p.Cores)
	}
	if len(p.Words) == 0 || len(p.Words) > 64 {
		return nil, fmt.Errorf("fuzz: %d shared words out of [1,64]", len(p.Words))
	}
	if p.TableSlots < 0 || p.TableSlots > 64 {
		return nil, fmt.Errorf("fuzz: table slots %d out of [0,64]", p.TableSlots)
	}

	ex := &expect{
		counters: make(map[int]int64),
		lanes:    make(map[int]int64),
		commits:  make([]int64, p.Cores),
	}
	for i, w := range p.Words {
		if w.Lane {
			ex.lanes[i] = w.Init
		} else {
			ex.counters[i] = w.Init
		}
	}
	seenKeys := make(map[int64]bool)
	laneSize := make(map[int]uint8)

	for core, stmts := range p.Threads {
		w := &walker{p: p, ex: ex, core: core, seenKeys: seenKeys, laneSize: laneSize}
		if err := w.walk(stmts, 1, false, 0); err != nil {
			return nil, fmt.Errorf("fuzz: core %d: %w", core, err)
		}
	}
	if len(ex.keys) > p.TableSlots/2 {
		return nil, fmt.Errorf("fuzz: %d keys for %d table slots (need slots >= 2*keys)", len(ex.keys), p.TableSlots)
	}
	return ex, nil
}

// walker accumulates expectations for one core's statement tree.
type walker struct {
	p        *Prog
	ex       *expect
	core     int
	seenKeys map[int64]bool
	laneSize map[int]uint8 // lane word -> access size, uniform across cores
	rLast    bool          // rLast defined at this point of the walk
}

// walk validates stmts executed mult times at the given loop depth.
// inTx reports whether the walk is inside a transaction (inBranch inside
// a branch body, which further restricts the allowed kinds).
func (w *walker) walk(stmts []Stmt, mult int64, inTx bool, depth int) error {
	return w.walkIn(stmts, mult, inTx, false, depth)
}

func (w *walker) walkIn(stmts []Stmt, mult int64, inTx, inBranch bool, depth int) error {
	for i := range stmts {
		s := &stmts[i]
		switch s.Kind {
		case KTx:
			if inTx {
				return fmt.Errorf("stmt %d: nested tx", i)
			}
			if len(s.Body) == 0 {
				return fmt.Errorf("stmt %d: empty tx", i)
			}
			w.rLast = false // registers restore to the TXBEGIN checkpoint on abort
			if err := w.walkIn(s.Body, mult, true, false, depth); err != nil {
				return err
			}
			w.ex.commits[w.core] += mult
		case KLoop:
			if inBranch {
				return fmt.Errorf("stmt %d: loop inside branch body", i)
			}
			if s.N < 1 || s.N > maxLoopN {
				return fmt.Errorf("stmt %d: loop count %d out of [1,%d]", i, s.N, maxLoopN)
			}
			if depth >= maxLoopDepth {
				return fmt.Errorf("stmt %d: loop nesting exceeds %d", i, maxLoopDepth)
			}
			if err := w.walkIn(s.Body, mult*s.N, inTx, false, depth+1); err != nil {
				return err
			}
		case KBusy:
			if s.N < 1 || s.N > maxBusyN {
				return fmt.Errorf("stmt %d: busy count %d out of [1,%d]", i, s.N, maxBusyN)
			}
		case KBarrier:
			if inTx || depth > 0 {
				return fmt.Errorf("stmt %d: barrier must be at top level", i)
			}
		case KAdd:
			if !inTx || inBranch {
				return fmt.Errorf("stmt %d: add outside tx (or inside branch body)", i)
			}
			if err := w.counterTarget(s.Tgt); err != nil {
				return fmt.Errorf("stmt %d: %w", i, err)
			}
			w.ex.counters[s.Tgt] += s.N * mult // two's-complement wrap, like the machine
			w.rLast = true
		case KBranch:
			if !inTx || inBranch {
				return fmt.Errorf("stmt %d: branch outside tx (or nested branch)", i)
			}
			if s.Tgt >= 0 {
				if err := w.counterTarget(s.Tgt); err != nil {
					return fmt.Errorf("stmt %d: %w", i, err)
				}
				w.rLast = true
			} else if !w.rLast {
				return fmt.Errorf("stmt %d: branch on rLast before any shared load in this tx", i)
			}
			switch s.Cmp {
			case "beq", "bne", "blt", "bge", "ble", "bgt":
			default:
				return fmt.Errorf("stmt %d: unknown branch cmp %q", i, s.Cmp)
			}
			// The gated body must be free of shared side effects so the
			// statically-expected shared state is schedule-independent.
			if err := w.walkIn(s.Body, mult, inTx, true, depth); err != nil {
				return err
			}
		case KProbe:
			if !inTx || inBranch {
				return fmt.Errorf("stmt %d: probe outside tx (or inside branch body)", i)
			}
			if w.p.TableSlots == 0 {
				return fmt.Errorf("stmt %d: probe with no table", i)
			}
			if s.N <= 0 {
				return fmt.Errorf("stmt %d: probe key %d must be positive", i, s.N)
			}
			if mult != 1 {
				return fmt.Errorf("stmt %d: probe inside a loop (keys must be inserted once)", i)
			}
			if w.seenKeys[s.N] {
				return fmt.Errorf("stmt %d: duplicate probe key %d", i, s.N)
			}
			w.seenKeys[s.N] = true
			w.ex.keys = append(w.ex.keys, s.N)
		case KLane:
			if !inTx || inBranch {
				return fmt.Errorf("stmt %d: lane store outside tx (or inside branch body)", i)
			}
			if s.Tgt < 0 || s.Tgt >= len(w.p.Words) || !w.p.Words[s.Tgt].Lane {
				return fmt.Errorf("stmt %d: lane target %d is not a lane word", i, s.Tgt)
			}
			if s.Size != 1 && s.Size != 2 && s.Size != 4 {
				return fmt.Errorf("stmt %d: lane size %d not in {1,2,4}", i, s.Size)
			}
			// Lanes are disjoint only when every core uses the same access
			// size on a given word (lane = core index * size).
			if sz, ok := w.laneSize[s.Tgt]; ok && sz != s.Size {
				return fmt.Errorf("stmt %d: lane word %d used with sizes %d and %d", i, s.Tgt, sz, s.Size)
			}
			w.laneSize[s.Tgt] = s.Size
			off := int64(w.core) * int64(s.Size)
			if off+int64(s.Size) > mem.WordSize {
				return fmt.Errorf("stmt %d: core %d has no size-%d lane", i, w.core, s.Size)
			}
			// Last static store to this core's lane wins (loops repeat the
			// body in order, so walk order is completion order).
			addr := int64(s.Tgt)*mem.WordSize + off
			w.ex.lanes[s.Tgt] = mergeBytes(w.ex.lanes[s.Tgt], addr, s.Size, s.N)
		case KSave:
			if !inTx {
				return fmt.Errorf("stmt %d: save outside tx", i)
			}
			if !w.rLast {
				return fmt.Errorf("stmt %d: save before any shared load in this tx", i)
			}
			if s.Tgt < 0 || s.Tgt >= privWords {
				return fmt.Errorf("stmt %d: private word %d out of [0,%d)", i, s.Tgt, privWords)
			}
		case KPriv:
			if s.Tgt < 0 || s.Tgt >= privWords {
				return fmt.Errorf("stmt %d: private word %d out of [0,%d)", i, s.Tgt, privWords)
			}
			switch s.Size {
			case 1, 2, 4, 8:
			default:
				return fmt.Errorf("stmt %d: priv size %d", i, s.Size)
			}
		default:
			return fmt.Errorf("stmt %d: unknown kind %q", i, s.Kind)
		}
	}
	return nil
}

func (w *walker) counterTarget(tgt int) error {
	if tgt < 0 || tgt >= len(w.p.Words) || w.p.Words[tgt].Lane {
		return fmt.Errorf("target %d is not a counter word", tgt)
	}
	return nil
}

// mergeBytes stores an aligned size-byte value into a 64-bit word — the
// same little-endian merge the simulator's memory system performs,
// reimplemented here so the harness is an independent model.
func mergeBytes(word int64, addr int64, size uint8, v int64) int64 {
	if size == 8 {
		return v
	}
	shift := uint((addr & 7) * 8)
	mask := (int64(1)<<(8*uint(size)) - 1) << shift
	return (word &^ mask) | ((v << shift) & mask)
}

// extractBytes pulls an aligned size-byte field out of a 64-bit word,
// zero-extending — mirror of the simulator's load path.
func extractBytes(word int64, addr int64, size uint8) int64 {
	if size == 8 {
		return word
	}
	shift := uint((addr & 7) * 8)
	mask := int64(1)<<(8*uint(size)) - 1
	return (word >> shift) & mask
}
