package ltl_test

import (
	"context"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/bisim"
	"repro/internal/ltl"
	"repro/internal/lts"
	"repro/internal/machine"
)

func explore(t *testing.T, p *machine.Program, threads, ops int, acts *lts.Alphabet) *lts.LTS {
	t.Helper()
	l, _, err := machine.ExploreWithInfoContext(context.Background(), p, machine.Options{Threads: threads, Ops: ops, Acts: acts})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestLockFreedomFormulaMatchesTheorem59 checks that the LTL formula
// GF(return ∨ terminated) agrees with the τ-cycle/≈div criterion of
// Theorem 5.9 on the benchmarks.
func TestLockFreedomFormulaMatchesTheorem59(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	for _, tc := range []struct {
		id           string
		threads, ops int
	}{
		{"treiber", 2, 2},
		{"ms-queue", 2, 2},
		{"hw-queue", 3, 1},
		{"treiber-hp-fu", 2, 2},
		{"ccas", 2, 2},
	} {
		a, err := algorithms.ByID(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		cfg := algorithms.Config{Threads: tc.threads, Ops: tc.ops}
		l := explore(t, a.Build(cfg), tc.threads, tc.ops, nil)
		res, err := ltl.Check(l, ltl.LockFreedom())
		if err != nil {
			t.Fatal(err)
		}
		_, cyc := lts.HasTauCycle(l)
		if res.Holds != !cyc {
			t.Errorf("%s: LTL lock-freedom %v but tau-cycle %v", tc.id, res.Holds, cyc)
		}
		if res.Holds != a.ExpectLockFree {
			t.Errorf("%s: LTL verdict %v, expected %v", tc.id, res.Holds, a.ExpectLockFree)
		}
		if !res.Holds && len(res.Cycle) == 0 {
			t.Errorf("%s: violation must carry a lasso cycle", tc.id)
		}
	}
}

// TestNextFreeLTLPreservedByDivBisimulation demonstrates the paper's
// Section V.B claim on real systems: the MS queue and its Fig. 8 abstract
// program are ≈div, so every next-free formula receives the same verdict
// on both.
func TestNextFreeLTLPreservedByDivBisimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	a, err := algorithms.ByID("ms-queue")
	if err != nil {
		t.Fatal(err)
	}
	cfg := algorithms.Config{Threads: 2, Ops: 2}
	acts := lts.NewAlphabet()
	impl := explore(t, a.Build(cfg), 2, 2, acts)
	abs := explore(t, a.Abstract(cfg), 2, 2, acts)
	eq, err := bisim.EquivalentContext(context.Background(), impl, abs, bisim.KindDivBranching)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("premise failed: MS queue not ≈div its abstraction")
	}
	formulas := []*ltl.Formula{
		ltl.LockFreedom(),
		ltl.MethodCompletes("Deq"),
		ltl.MethodCompletes("Enq"),
		ltl.Globally(ltl.Implies(
			ltl.Atom(ltl.ActionContains("ret.Deq(1)")),
			ltl.Eventually(ltl.Or(ltl.Atom(ltl.ActionContains("call")), ltl.Atom(ltl.IsTerminated()))),
		)),
		ltl.Eventually(ltl.Atom(ltl.ActionContains("ret.Deq(empty)"))),
	}
	for _, f := range formulas {
		ri, err := ltl.Check(impl, f)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := ltl.Check(abs, f)
		if err != nil {
			t.Fatal(err)
		}
		if ri.Holds != ra.Holds {
			t.Errorf("formula %v: impl=%v abstract=%v — ≈div preservation violated", f, ri.Holds, ra.Holds)
		}
	}
}

// TestMethodCompletesOnBenchmarks: on divergence-free bounded systems
// every started operation completes; the HW queue's dequeue does not.
func TestMethodCompletesOnBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	ms, err := algorithms.ByID("ms-queue")
	if err != nil {
		t.Fatal(err)
	}
	cfg := algorithms.Config{Threads: 2, Ops: 2}
	l := explore(t, ms.Build(cfg), 2, 2, nil)
	for _, m := range []string{"Enq", "Deq"} {
		res, err := ltl.Check(l, ltl.MethodCompletes(m))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Holds {
			t.Errorf("MS queue: %s should always complete; lasso %v / %v", m, res.Prefix, res.Cycle)
		}
	}
	hw, err := algorithms.ByID("hw-queue")
	if err != nil {
		t.Fatal(err)
	}
	cfg = algorithms.Config{Threads: 3, Ops: 1}
	l = explore(t, hw.Build(cfg), 3, 1, nil)
	res, err := ltl.Check(l, ltl.MethodCompletes("Deq"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Error("HW queue: a dequeue on an empty queue never completes")
	}
}
