package refine

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bisim"
	"repro/internal/lts"
)

func build(t *testing.T, acts *lts.Alphabet, init int, edges [][3]interface{}) *lts.LTS {
	t.Helper()
	b := lts.NewBuilder(acts)
	b.SetInit(init)
	for _, e := range edges {
		b.Add(e[0].(int), e[1].(string), e[2].(int))
	}
	return b.Build()
}

func TestInclusionHolds(t *testing.T) {
	acts := lts.NewAlphabet()
	impl := build(t, acts, 0, [][3]interface{}{
		{0, lts.TauName, 1}, {1, "a", 2}, {2, lts.TauName, 3}, {3, "b", 4},
	})
	spec := build(t, acts, 0, [][3]interface{}{
		{0, "a", 1}, {1, "b", 2}, {1, "c", 3},
	})
	res, err := TraceInclusion(impl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Included {
		t.Fatalf("expected inclusion, got counterexample %v", res.Counterexample)
	}
	// The reverse fails: spec has trace a.c.
	rev, err := TraceInclusion(spec, impl)
	if err != nil {
		t.Fatal(err)
	}
	if rev.Included {
		t.Fatal("reverse inclusion should fail")
	}
	got := rev.Counterexample.Trace
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("counterexample = %v, want [a c]", got)
	}
	if !strings.Contains(rev.Counterexample.Format(), "not allowed") {
		t.Fatal("Format should flag the failing action")
	}
}

func TestCounterexampleIsShortest(t *testing.T) {
	acts := lts.NewAlphabet()
	impl := build(t, acts, 0, [][3]interface{}{
		{0, "a", 1}, {1, "a", 2}, {2, "bad", 3}, {0, "bad", 4},
	})
	spec := build(t, acts, 0, [][3]interface{}{
		{0, "a", 0},
	})
	res, err := TraceInclusion(impl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Included {
		t.Fatal("inclusion should fail")
	}
	if len(res.Counterexample.Trace) != 1 || res.Counterexample.Trace[0] != "bad" {
		t.Fatalf("counterexample = %v, want the length-1 trace [bad]", res.Counterexample.Trace)
	}
}

func TestNondeterministicSpecNeedsSubsets(t *testing.T) {
	acts := lts.NewAlphabet()
	// Spec: a leads nondeterministically to a state allowing b or one
	// allowing c. Impl does a then b — included, but only if the checker
	// tracks both spec successors.
	impl := build(t, acts, 0, [][3]interface{}{
		{0, "a", 1}, {1, "b", 2},
	})
	spec := build(t, acts, 0, [][3]interface{}{
		{0, "a", 1}, {0, "a", 2}, {1, "b", 3}, {2, "c", 4},
	})
	res, err := TraceInclusion(impl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Included {
		t.Fatalf("subset construction failed: %v", res.Counterexample)
	}
}

func TestTauInSpecIsFree(t *testing.T) {
	acts := lts.NewAlphabet()
	impl := build(t, acts, 0, [][3]interface{}{{0, "a", 1}})
	spec := build(t, acts, 0, [][3]interface{}{
		{0, lts.TauName, 1}, {1, lts.TauName, 2}, {2, "a", 3},
	})
	res, err := TraceInclusion(impl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Included {
		t.Fatal("tau steps in the spec must not block matching")
	}
}

func TestMismatchedAlphabets(t *testing.T) {
	a := build(t, lts.NewAlphabet(), 0, nil)
	b := build(t, lts.NewAlphabet(), 0, nil)
	if _, err := TraceInclusion(a, b); err == nil {
		t.Fatal("expected alphabet error")
	}
	if _, _, _, err := TraceEquivalent(a, b); err == nil {
		t.Fatal("expected alphabet error")
	}
}

func TestTraceEquivalent(t *testing.T) {
	acts := lts.NewAlphabet()
	a := build(t, acts, 0, [][3]interface{}{{0, "a", 1}, {0, lts.TauName, 2}, {2, "a", 3}})
	b := build(t, acts, 0, [][3]interface{}{{0, "a", 1}})
	eq, ab, ba, err := TraceEquivalent(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !eq || !ab.Included || !ba.Included {
		t.Fatal("a and b are trace equivalent")
	}
}

func randomLTS(r *rand.Rand, acts *lts.Alphabet, n, m int, names []string) *lts.LTS {
	b := lts.NewBuilder(acts)
	b.SetInit(0)
	b.AddStates(n)
	for i := 0; i < m; i++ {
		b.Add(r.Intn(n), names[r.Intn(len(names))], r.Intn(n))
	}
	return b.Build()
}

func TestRefinementProperties(t *testing.T) {
	names := []string{lts.TauName, "a", "b"}
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		acts := lts.NewAlphabet()
		n := 2 + r.Intn(10)
		l := randomLTS(r, acts, n, 1+r.Intn(2*n), names)

		// Reflexivity.
		res, err := TraceInclusion(l, l)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Included {
			t.Fatalf("seed %d: refinement not reflexive", seed)
		}

		// Theorem 5.2: the branching-bisimulation quotient has the same
		// traces as the original system.
		q, _, _ := bisim.ReduceBranchingContext(context.Background(), l)
		eq, _, _, err := TraceEquivalent(l, q)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("seed %d: quotient changed the trace set", seed)
		}

		// Branching bisimilar systems are trace equivalent (one direction
		// of the theory): compare l with a tau-padded copy.
		pad := lts.NewBuilder(acts)
		pad.SetInit(0)
		pad.AddStates(n + 1)
		pad.Add(0, lts.TauName, 1)
		for s := 0; s < n; s++ {
			for _, tr := range l.Succ(int32(s)) {
				pad.AddID(s+1, tr.Action, int(tr.Dst)+1)
			}
		}
		padded := pad.Build()
		eq, _, _, err = TraceEquivalent(l, padded)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("seed %d: tau-padding changed traces", seed)
		}
	}
}

func TestCounterexampleReplayable(t *testing.T) {
	// Any counterexample must be an actual trace of the left system.
	names := []string{lts.TauName, "a", "b", "c"}
	for seed := int64(100); seed < 140; seed++ {
		r := rand.New(rand.NewSource(seed))
		acts := lts.NewAlphabet()
		a := randomLTS(r, acts, 2+r.Intn(8), 1+r.Intn(12), names)
		b := randomLTS(r, acts, 2+r.Intn(8), 1+r.Intn(12), names)
		res, err := TraceInclusion(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if res.Included {
			continue
		}
		if !lts.HasTrace(a, res.Counterexample.Trace) {
			t.Fatalf("seed %d: counterexample %v is not a trace of the left system", seed, res.Counterexample.Trace)
		}
		if lts.HasTrace(b, res.Counterexample.Trace) {
			t.Fatalf("seed %d: counterexample %v is a trace of the right system", seed, res.Counterexample.Trace)
		}
	}
}
