package vet_test

import (
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/bbvl"
	"repro/internal/machine"
	"repro/internal/vet"
)

// checkNoRegion loads a BBVL model whose Lock is no lock: no inferred
// region may mask a conflict of the statements in racy, and the relation
// Reduce trusts must survive the dynamic commutation check, which finds
// two threads inside the would-be region at once.
func checkNoRegion(t *testing.T, name, src string, racy ...string) {
	t.Helper()
	m, err := bbvl.Load(name+".bbvl", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	cfg := algorithms.Config{Threads: 2, Ops: 2}
	p := m.Build(cfg)
	art := vet.Reduce(p, vet.Options{Threads: cfg.Threads, Ops: cfg.Ops})
	if art == nil {
		t.Fatal("Reduce returned nil")
	}
	for i, s := range art.Stmts {
		for _, l := range racy {
			if s.Label == l && art.Confluent[i] {
				t.Errorf("racy statement %s classified confluent\n%s", l, art.Format())
			}
		}
	}
	opt := machine.PilotOptions{Threads: cfg.Threads, Ops: cfg.Ops}
	if err := machine.ValidateIndependence(p, opt, vet.TrustedOracle(p, art, false)); err != nil {
		t.Errorf("trusted relation refuted: %v\n%s", err, art.Format())
	}
}

// TestLockRejectsReleaseWhileUnheld: Pop zeroes Lock without holding it,
// so a second Push can enter P2–P4 while the first is still there, and
// their writes to X race. Only the check that every release executes
// while held keeps Lock from qualifying as a lock.
func TestLockRejectsReleaseWhileUnheld(t *testing.T) {
	checkNoRegion(t, "steal", `
model steal

globals {
  Lock: val
  X: val
}

spec stack

method Push(v: vals) {
  P1: if cas(Lock, 0, self) { goto P2 } else { goto P1 }
  P2: X = self; goto P3
  P3: X = v; goto P4
  P4: Lock = 0; return ok
}

method Pop() {
  Q1: Lock = 0; return empty
}
`, "P2", "P3")
}

// TestLockMeetDecaysToUnheld: P3 is reached holding Lock (the acquire
// succeeded) and not holding it (through P2 after the acquire failed),
// so the must-analysis meet must make it unheld. Held, it would form a
// region with two threads inside, whose writes to X race.
func TestLockMeetDecaysToUnheld(t *testing.T) {
	checkNoRegion(t, "leak", `
model leak

globals {
  Lock: val
  X: val
}

spec stack

method Push(v: vals) {
  P1: if cas(Lock, 0, self) { goto P3 } else { goto P2 }
  P2: X = v; goto P3
  P3: X = self; return ok
}

method Pop() {
  Q1: X = 0; return empty
}
`, "P3")
}

// TestReduceMethodWithoutLocals: the fixpoint over fresh locals must
// converge for methods that declare no locals. A copy of an empty fresh
// set once came back nil, which the fixpoint reads as "not reached", so
// any goto in such a method kept it iterating forever.
func TestReduceMethodWithoutLocals(t *testing.T) {
	m, err := bbvl.Load("nolocals.bbvl", []byte(`
model nolocals

globals {
  X: val
}

spec stack

method Push(v: vals) {
  P1: X = v; goto P2
  P2: return ok
}

method Pop() {
  Q1: return empty
}
`))
	if err != nil {
		t.Fatal(err)
	}
	p := m.Build(algorithms.Config{Threads: 2, Ops: 2})
	done := make(chan *vet.ReductionArtifact, 1)
	go func() { done <- vet.Reduce(p, vet.Options{Threads: 2, Ops: 2}) }()
	select {
	case art := <-done:
		if art == nil {
			t.Fatal("Reduce returned nil")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Reduce did not return within 10 s")
	}
}
