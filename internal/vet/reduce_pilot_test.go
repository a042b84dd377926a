package vet_test

import (
	"testing"

	"repro/internal/algorithms"
	"repro/internal/machine"
	"repro/internal/vet"
)

// TestReductionStartsNoPilotWalk: Reduce trusts its static proofs of
// mutual exclusion and acyclicity, so it walks no pilot state space.
// spinlock-queue has one verified lock and confluent statements, so a
// dynamic re-check of either proof would show up as a walk.
func TestReductionStartsNoPilotWalk(t *testing.T) {
	p := loadExample(t, "spinlock-queue").Build(algorithms.Config{Threads: 2, Ops: 2})
	walks := 0
	restore := machine.SetPilotObserver(func(*machine.Program) { walks++ })
	art := vet.Reduce(p, vet.Options{Threads: 2, Ops: 2})
	restore()
	if len(art.Locks) != 1 || art.NumConfluent() == 0 {
		t.Fatalf("locks %v, %d confluent; want one verified lock and some confluent statements\n%s", art.Locks, art.NumConfluent(), art.Format())
	}
	if walks != 0 {
		t.Fatalf("Reduce ran %d pilot walks, want 0", walks)
	}
}
