package core_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

// atomicRegister is a linearizable register: Write(v) and Read().
func atomicRegister() *machine.Program {
	return &machine.Program{
		Name:    "atomic-register",
		Globals: machine.Schema{Names: []string{"r"}, Kinds: []machine.VarKind{machine.KVal}},
		Methods: []machine.Method{
			{Name: "Write", Args: []int32{1, 2}, Body: []machine.Stmt{{
				Label: "W", Exec: func(c *machine.Ctx) {
					c.SetV(0, c.Arg)
					c.Return(machine.ValOK)
				},
			}}},
			{Name: "Read", Body: []machine.Stmt{{
				Label: "R", Exec: func(c *machine.Ctx) { c.Return(c.V(0)) },
			}}},
		},
	}
}

// brokenCounter increments non-atomically (read then write), so two
// concurrent Incs can lose an update: not linearizable against the
// atomic counter spec.
func brokenCounter() *machine.Program {
	return &machine.Program{
		Name:    "broken-counter",
		Globals: machine.Schema{Names: []string{"c"}, Kinds: []machine.VarKind{machine.KVal}},
		NLocals: 1,
		Methods: []machine.Method{
			{Name: "Inc", Body: []machine.Stmt{
				{Label: "I1", Exec: func(c *machine.Ctx) {
					c.L[0] = c.V(0)
					c.Goto(1)
				}},
				{Label: "I2", Exec: func(c *machine.Ctx) {
					c.SetV(0, c.L[0]+1)
					c.Return(machine.ValOK)
				}},
			}},
			{Name: "Read", Body: []machine.Stmt{{
				Label: "R", Exec: func(c *machine.Ctx) { c.Return(c.V(0)) },
			}}},
		},
	}
}

func counterSpec() *machine.Program {
	return &machine.Program{
		Name:    "counter-spec",
		Globals: machine.Schema{Names: []string{"c"}, Kinds: []machine.VarKind{machine.KVal}},
		Methods: []machine.Method{
			{Name: "Inc", Body: []machine.Stmt{{
				Label: "I", Exec: func(c *machine.Ctx) {
					c.SetV(0, c.V(0)+1)
					c.Return(machine.ValOK)
				},
			}}},
			{Name: "Read", Body: []machine.Stmt{{
				Label: "R", Exec: func(c *machine.Ctx) { c.Return(c.V(0)) },
			}}},
		},
	}
}

// spinLock acquires a test-and-set lock by busy waiting: not lock-free.
func spinLock() *machine.Program {
	return &machine.Program{
		Name:    "spin-lock",
		Globals: machine.Schema{Names: []string{"l"}, Kinds: []machine.VarKind{machine.KVal}},
		Methods: []machine.Method{
			{Name: "Acquire", Body: []machine.Stmt{
				{Label: "A1", Exec: func(c *machine.Ctx) {
					if c.CASV(0, 0, int32(c.T)+1) {
						c.Return(machine.ValOK)
					} else {
						c.Goto(0) // spin
					}
				}},
			}},
			{Name: "Release", Body: []machine.Stmt{{
				Label: "R1", Exec: func(c *machine.Ctx) {
					if c.V(0) == int32(c.T)+1 {
						c.SetV(0, 0)
					}
					c.Return(machine.ValOK)
				},
			}}},
		},
	}
}

func TestLinearizablePositive(t *testing.T) {
	res, err := core.NewSession(core.Config{Threads: 2, Ops: 2}).CheckLinearizabilityContext(context.Background(), atomicRegister(), atomicRegister())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Linearizable {
		t.Fatalf("atomic register must be linearizable; counterexample %v", res.Counterexample.Trace)
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed time not recorded")
	}
}

func TestLinearizableNegative(t *testing.T) {
	res, err := core.NewSession(core.Config{Threads: 2, Ops: 2}).CheckLinearizabilityContext(context.Background(), brokenCounter(), counterSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Linearizable {
		t.Fatal("lost-update counter must not be linearizable")
	}
	// The counterexample ends in a Read returning a stale value (1 after
	// two increments).
	last := res.Counterexample.Trace[len(res.Counterexample.Trace)-1]
	if !strings.Contains(last, "ret.Read(1)") {
		t.Errorf("unexpected failing action %q in %v", last, res.Counterexample.Trace)
	}
}

func TestLockFreeAutoPositive(t *testing.T) {
	res, err := core.NewSession(core.Config{Threads: 2, Ops: 2}).CheckLockFreeAutoContext(context.Background(), atomicRegister())
	if err != nil {
		t.Fatal(err)
	}
	if !res.LockFree || !res.Bisimilar {
		t.Fatal("atomic register must be lock-free and ≈div its quotient")
	}
	if res.AbstractStates >= res.ImplStates {
		t.Errorf("quotient %d not smaller than system %d", res.AbstractStates, res.ImplStates)
	}
	if !strings.Contains(res.Theorem, "5.9") {
		t.Errorf("theorem = %q", res.Theorem)
	}
}

func TestLockFreeAutoNegative(t *testing.T) {
	res, err := core.NewSession(core.Config{Threads: 2, Ops: 2}).CheckLockFreeAutoContext(context.Background(), spinLock())
	if err != nil {
		t.Fatal(err)
	}
	if res.LockFree {
		t.Fatal("spin lock must not be lock-free")
	}
	if res.Divergence == nil {
		t.Fatal("missing divergence diagnostic")
	}
	if !strings.Contains(res.Divergence.Format(), "A1") {
		t.Errorf("divergence should spin at A1:\n%s", res.Divergence.Format())
	}
}

func TestLockFreeAbstract(t *testing.T) {
	// A system is trivially ≈div-bisimilar to itself as its own abstract
	// program.
	res, err := core.NewSession(core.Config{Threads: 2, Ops: 1}).CheckLockFreeAbstractContext(context.Background(), atomicRegister(), atomicRegister())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bisimilar || !res.LockFree {
		t.Fatalf("self-abstraction failed: %+v", res)
	}
	if !strings.Contains(res.Theorem, "5.8") {
		t.Errorf("theorem = %q", res.Theorem)
	}

	// An abstraction that diverges propagates the negative verdict.
	res, err = core.NewSession(core.Config{Threads: 2, Ops: 1}).CheckLockFreeAbstractContext(context.Background(), spinLock(), spinLock())
	if err != nil {
		t.Fatal(err)
	}
	if res.LockFree {
		t.Fatal("diverging abstraction must yield not-lock-free")
	}
	if res.Divergence == nil {
		t.Fatal("missing divergence diagnostic")
	}

	// Mismatched systems are reported as not bisimilar.
	res, err = core.NewSession(core.Config{Threads: 2, Ops: 2}).CheckLockFreeAbstractContext(context.Background(), brokenCounter(), counterSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Bisimilar {
		t.Fatal("broken counter should not be ≈div the atomic counter")
	}
}

func TestCompareWithSpec(t *testing.T) {
	// Two ops per thread: the lost update needs a subsequent Read to be
	// observable.
	rep, err := core.NewSession(core.Config{Threads: 2, Ops: 2}).CompareWithSpecContext(context.Background(), brokenCounter(), counterSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ImplStates == 0 || rep.SpecStates == 0 || rep.ImplQuotient == 0 || rep.SpecQuotient == 0 {
		t.Fatalf("missing sizes: %+v", rep)
	}
	if rep.BranchBisimilar {
		t.Error("broken counter must not be ≈ its spec")
	}

	// The atomic register against itself is bisimilar under both notions.
	rep, err = core.NewSession(core.Config{Threads: 2, Ops: 1}).CompareWithSpecContext(context.Background(), atomicRegister(), atomicRegister())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.BranchBisimilar || !rep.WeakBisimilar {
		t.Errorf("self-comparison failed: %+v", rep)
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := core.NewSession(core.Config{}).CheckLinearizabilityContext(context.Background(), atomicRegister(), atomicRegister()); err == nil {
		t.Fatal("zero config must error")
	}
	if _, err := core.NewSession(core.Config{Threads: 1, Ops: 1, MaxStates: 2}).CheckLockFreeAutoContext(context.Background(), atomicRegister()); err == nil {
		t.Fatal("tiny state cap must error")
	}
	if _, err := core.NewSession(core.Config{Threads: 1, Ops: 1, MaxStates: 2}).CheckLockFreeAbstractContext(context.Background(), atomicRegister(), atomicRegister()); err == nil {
		t.Fatal("tiny state cap must error")
	}
	if _, err := core.NewSession(core.Config{Threads: 1, Ops: 1, MaxStates: 2}).CompareWithSpecContext(context.Background(), atomicRegister(), atomicRegister()); err == nil {
		t.Fatal("tiny state cap must error")
	}
}

// twoLockProgram acquires two locks in opposite orders depending on the
// method: the classic deadlock.
func twoLockProgram(ordered bool) *machine.Program {
	lockPair := func(first, second int) []machine.Stmt {
		return []machine.Stmt{
			{Label: "K1", Exec: func(c *machine.Ctx) {
				if c.CASV(first, 0, c.Self()) {
					c.Goto(1)
				}
			}},
			{Label: "K2", Exec: func(c *machine.Ctx) {
				if c.CASV(second, 0, c.Self()) {
					c.Goto(2)
				}
			}},
			{Label: "K3", Exec: func(c *machine.Ctx) {
				c.SetV(first, 0)
				c.SetV(second, 0)
				c.Return(machine.ValOK)
			}},
		}
	}
	secondFirst := lockPair(1, 0)
	if ordered {
		secondFirst = lockPair(0, 1)
	}
	return &machine.Program{
		Name:    "twolock",
		Globals: machine.Schema{Names: []string{"la", "lb"}, Kinds: []machine.VarKind{machine.KVal, machine.KVal}},
		Methods: []machine.Method{
			{Name: "AB", Body: lockPair(0, 1)},
			{Name: "BA", Body: secondFirst},
		},
	}
}

func TestDeadlockDetection(t *testing.T) {
	res, err := core.NewSession(core.Config{Threads: 2, Ops: 1}).CheckDeadlockFreeContext(context.Background(), twoLockProgram(false))
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlockFree {
		t.Fatal("opposite lock orders must deadlock")
	}
	if res.Witness == nil || len(res.Witness.Steps) == 0 {
		t.Fatal("missing deadlock witness")
	}

	res, err = core.NewSession(core.Config{Threads: 2, Ops: 1}).CheckDeadlockFreeContext(context.Background(), twoLockProgram(true))
	if err != nil {
		t.Fatal(err)
	}
	if !res.DeadlockFree {
		t.Fatalf("ordered locking must be deadlock-free; witness:\n%s", res.Witness.Format())
	}
	if _, err := core.NewSession(core.Config{}).CheckDeadlockFreeContext(context.Background(), twoLockProgram(true)); err == nil {
		t.Fatal("zero config must error")
	}
}
