package htm

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestSpecSetMarkAndCapacity(t *testing.T) {
	s := NewSpecSet(2)
	if !s.Mark(1, false) || !s.Mark(1, true) {
		t.Fatal("marking the same block twice must not consume capacity")
	}
	if !s.Mark(2, false) {
		t.Fatal("second block fits")
	}
	if s.Mark(3, false) {
		t.Fatal("third block must overflow")
	}
	b, ok := s.Get(1)
	if !ok || !b.Read || !b.Written {
		t.Errorf("bits for block 1: %+v", b)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	s.Clear()
	if _, ok := s.Get(1); s.Len() != 0 || ok {
		t.Error("Clear must empty the set")
	}
}

func TestUndoLogRollbackOrder(t *testing.T) {
	tx := NewTx(16)
	var regs [isa.NumRegs]int64
	tx.Begin(0, 1, &regs, 0)
	// Two stores to the same address: rollback must restore the OLDEST
	// value (reverse-order application).
	mem := map[int64]int64{100: 7}
	tx.LogStore(100, 8, mem[100])
	mem[100] = 8
	tx.LogStore(100, 8, mem[100])
	mem[100] = 9
	tx.Rollback(func(addr int64, size uint8, v int64) { mem[addr] = v })
	if mem[100] != 7 {
		t.Errorf("rollback restored %d, want 7", mem[100])
	}
	if tx.Active {
		t.Error("rollback must deactivate the transaction")
	}
}

func TestCommitClearsState(t *testing.T) {
	tx := NewTx(16)
	var regs [isa.NumRegs]int64
	tx.Begin(5, 3, &regs, 10)
	tx.Spec.Mark(1, true)
	tx.LogStore(8, 8, 0)
	tx.Aborts = 2
	tx.Commit()
	if tx.Active || tx.Spec.Len() != 0 || len(tx.Undo) != 0 || tx.Aborts != 0 {
		t.Error("commit must clear all speculative state")
	}
}

func TestBeginSnapshotsRegisters(t *testing.T) {
	tx := NewTx(16)
	var regs [isa.NumRegs]int64
	regs[5] = 42
	tx.Begin(0, 1, &regs, 0)
	regs[5] = 99
	if tx.RegCkpt[5] != 42 {
		t.Error("Begin must snapshot registers by value")
	}
}

func TestOlderWins(t *testing.T) {
	if !OlderWins(1, 0, 2, 1) {
		t.Error("smaller timestamp must win")
	}
	if OlderWins(3, 0, 2, 1) {
		t.Error("larger timestamp must lose")
	}
	if !OlderWins(2, 0, 2, 1) || OlderWins(2, 1, 2, 0) {
		t.Error("ties must break by core ID")
	}
	// Totality: exactly one side wins.
	f := func(tsA, tsB int64, cA, cB uint8) bool {
		a, b := int(cA%32), int(cB%32)
		if a == b && tsA == tsB {
			return true
		}
		return OlderWins(tsA, a, tsB, b) != OlderWins(tsB, b, tsA, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPredictorPromoteAndDemote(t *testing.T) {
	p := NewPredictor(2, 100)
	if p.Tracks(7) {
		t.Fatal("fresh block must not be tracked")
	}
	p.ObserveConflict(7)
	if p.Tracks(7) {
		t.Fatal("one conflict below threshold")
	}
	p.ObserveConflict(7)
	if !p.Tracks(7) {
		t.Fatal("two conflicts must promote")
	}
	// A violation trains down hard: 100 conflicts needed again.
	p.ObserveViolation(7)
	if p.Tracks(7) {
		t.Fatal("violation must demote")
	}
	for i := 0; i < 99; i++ {
		p.ObserveConflict(7)
		if p.Tracks(7) {
			t.Fatalf("re-promoted after only %d conflicts", i+1)
		}
	}
	p.ObserveConflict(7)
	if !p.Tracks(7) {
		t.Fatal("100 conflicts after violation must re-promote")
	}
}

// TestPredictorObserveConflictN: the bulk form equals n single
// observations, across a violation's negative count and the promotion
// threshold.
func TestPredictorObserveConflictN(t *testing.T) {
	for _, n := range []int64{1, 2, 40, 99, 100, 101} {
		one, bulk := NewPredictor(3, 100), NewPredictor(3, 100)
		one.ObserveViolation(7)
		bulk.ObserveViolation(7)
		for i := int64(0); i < n; i++ {
			one.ObserveConflict(7)
		}
		bulk.ObserveConflictN(7, n)
		if *one.find(7) != *bulk.find(7) {
			t.Errorf("n=%d: bulk slot %+v, one-by-one %+v", n, *bulk.find(7), *one.find(7))
		}
	}
}

func TestPredictorReset(t *testing.T) {
	p := NewPredictor(1, 100)
	p.ObserveConflict(3)
	if !p.Tracks(3) {
		t.Fatal("promote-after-1 must track immediately")
	}
	p.Reset()
	if p.Tracks(3) {
		t.Error("Reset must forget history")
	}
}
