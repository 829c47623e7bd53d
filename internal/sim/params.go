// Package sim is the cycle-level multicore simulator: in-order 1-IPC cores
// executing ISA programs over private L1/L2 hierarchies, a directory
// protocol, the baseline HTM, and RETCON's symbolic tracking. It is
// single-goroutine and fully deterministic: identical inputs produce
// identical cycle counts.
package sim

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/core"
)

// Mode selects the conflict-handling configuration evaluated in the paper
// (Figure 9): the eager baseline, the lazy value-based ablation, and full
// RETCON symbolic repair.
type Mode int

// Modes.
const (
	Eager Mode = iota
	LazyVB
	RetCon
)

// String returns the paper's name for the mode.
func (m Mode) String() string {
	switch m {
	case Eager:
		return "eager"
	case LazyVB:
		return "lazy-vb"
	case RetCon:
		return "RetCon"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Params configures the simulated machine. DefaultParams reproduces
// Table 1.
type Params struct {
	Cores int
	Mode  Mode

	// Sched selects the cycle-loop scheduler: the event-driven time-skip
	// scheduler (SchedEvent, the zero value and default) or the lockstep
	// reference oracle (SchedLockstep). Both produce identical Results;
	// see sched.go.
	Sched SchedKind

	// Cache hierarchy (per core, private).
	L1Bytes int64
	L2Bytes int64
	Ways    int
	L1Hit   int64
	L2Hit   int64

	// Coherence and memory.
	Hop           int64
	DRAM          int64
	DRAMOccupancy int64

	// HTM.
	SpecCapacity     int   // blocks of speculative metadata (L1 + permissions-only cache)
	NackRetry        int64 // cycles a NACKed request waits before retrying
	AbortBackoffBase int64 // base backoff after an abort, scaled by retry count

	// RETCON structures and predictor.
	Retcon           core.Config
	PromoteAfter     int
	ViolationPenalty int

	// Idealized-RETCON knobs (§5.3 "Comparison to idealized system").
	IdealUnlimited         bool // unbounded IVB/constraint/SSB structures
	IdealParallelReacquire bool // reacquire lost blocks in parallel at commit
	IdealZeroStoreLatency  bool // reperform stores into the cache for free

	// Memory image size and the watchdog bound on simulated cycles.
	MemBytes  int64
	MaxCycles int64
}

// DefaultParams returns the Table 1 machine: 32 in-order cores, 64KB 4-way
// L1, 1MB 4-way private L2 (10-cycle hit), 100-cycle DRAM, 20-cycle hops,
// 16-entry initial value buffer, 16-entry constraint buffer, 32-entry
// symbolic store buffer.
func DefaultParams() Params {
	return Params{
		Cores:            32,
		Mode:             Eager,
		L1Bytes:          64 << 10,
		L2Bytes:          1 << 20,
		Ways:             4,
		L1Hit:            1,
		L2Hit:            10,
		Hop:              20,
		DRAM:             100,
		DRAMOccupancy:    12,
		SpecCapacity:     1280, // 1024 L1 blocks + 4KB/16B permissions-only entries
		NackRetry:        10,
		AbortBackoffBase: 24,
		Retcon:           core.DefaultConfig(),
		PromoteAfter:     1,
		ViolationPenalty: 100,
		MemBytes:         64 << 20,
		MaxCycles:        2_000_000_000,
	}
}

// Latencies bundles the coherence timing for the directory.
func (p *Params) latencies() coherence.Latencies {
	return coherence.Latencies{Hop: p.Hop, DRAM: p.DRAM, DRAMOccupancy: p.DRAMOccupancy}
}

// retconConfig returns the structure configuration for a core, applying
// the idealized-unlimited knob and the lazy-vb flag.
func (p *Params) retconConfig() core.Config {
	cfg := p.Retcon
	if p.IdealUnlimited {
		cfg.IVBEntries = 1 << 30
		cfg.ConstraintEntries = 1 << 30
		cfg.SSBEntries = 1 << 30
	}
	cfg.Lazy = p.Mode == LazyVB
	return cfg
}

// Validate checks the parameters for basic sanity.
func (p *Params) Validate() error {
	if p.Cores < 1 || p.Cores > 64 {
		return fmt.Errorf("sim: cores must be in [1,64], got %d", p.Cores)
	}
	if p.Mode < Eager || p.Mode > RetCon {
		return fmt.Errorf("sim: invalid mode %d", p.Mode)
	}
	if p.Sched < SchedEvent || p.Sched > SchedLockstep {
		return fmt.Errorf("sim: invalid scheduler %d", p.Sched)
	}
	if p.MemBytes < 1<<12 {
		return fmt.Errorf("sim: memory too small (%d bytes)", p.MemBytes)
	}
	if p.MaxCycles <= 0 {
		return fmt.Errorf("sim: MaxCycles must be positive")
	}
	// A NACKed access retries on the grid NACK cycle + k·NackRetry, and the
	// event scheduler's parked waits divide by the interval.
	if p.NackRetry < 1 {
		return fmt.Errorf("sim: NackRetry must be at least 1 cycle, got %d", p.NackRetry)
	}
	return nil
}
