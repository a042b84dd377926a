package bisim

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/lts"
)

// buildLTS constructs an LTS from (src, action, dst) triples.
func buildLTS(t *testing.T, acts *lts.Alphabet, init int, edges [][3]interface{}) *lts.LTS {
	t.Helper()
	b := lts.NewBuilder(acts)
	b.SetInit(init)
	for _, e := range edges {
		b.Add(e[0].(int), e[1].(string), e[2].(int))
	}
	return b.Build()
}

func TestStrongDistinguishesTau(t *testing.T) {
	acts := lts.NewAlphabet()
	// a0 --a--> a1  vs  b0 --tau--> b1 --a--> b2: strongly different,
	// branching bisimilar.
	a := buildLTS(t, acts, 0, [][3]interface{}{{0, "a", 1}})
	b := buildLTS(t, acts, 0, [][3]interface{}{{0, lts.TauName, 1}, {1, "a", 2}})
	eq, err := EquivalentContext(context.Background(), a, b, KindStrong)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("strong bisimulation must distinguish a from tau.a")
	}
	eq, err = EquivalentContext(context.Background(), a, b, KindBranching)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("branching bisimulation must equate a with tau.a")
	}
}

func TestWeakCoarserThanBranching(t *testing.T) {
	acts := lts.NewAlphabet()
	// P = tau.a + b ; Q = tau.a + b + a. Weakly bisimilar but not
	// branching bisimilar (the classic distinguishing pair).
	p := buildLTS(t, acts, 0, [][3]interface{}{
		{0, lts.TauName, 1}, {0, "b", 2}, {1, "a", 3},
	})
	q := buildLTS(t, acts, 0, [][3]interface{}{
		{0, lts.TauName, 1}, {0, "b", 2}, {0, "a", 3}, {1, "a", 4},
	})
	weakEq, err := EquivalentContext(context.Background(), p, q, KindWeak)
	if err != nil {
		t.Fatal(err)
	}
	if !weakEq {
		t.Fatal("P and Q must be weakly bisimilar")
	}
	brEq, err := EquivalentContext(context.Background(), p, q, KindBranching)
	if err != nil {
		t.Fatal(err)
	}
	if brEq {
		t.Fatal("P and Q must not be branching bisimilar")
	}
}

func TestDivergenceSensitivity(t *testing.T) {
	acts := lts.NewAlphabet()
	a := buildLTS(t, acts, 0, [][3]interface{}{{0, "a", 1}})
	b := buildLTS(t, acts, 0, [][3]interface{}{{0, "a", 1}, {1, lts.TauName, 1}})
	eq, err := EquivalentContext(context.Background(), a, b, KindBranching)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("plain branching bisimulation ignores divergence")
	}
	eq, err = EquivalentContext(context.Background(), a, b, KindDivBranching)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("divergence-sensitive branching bisimulation must reject the tau loop")
	}
}

func TestDivergenceReachedByInertTau(t *testing.T) {
	acts := lts.NewAlphabet()
	// s --tau--> c, c --tau--> c: s and c are both divergent and should
	// stay equivalent under ≈div; the deadlocked system differs.
	div := buildLTS(t, acts, 0, [][3]interface{}{{0, lts.TauName, 1}, {1, lts.TauName, 1}})
	dead := buildLTS(t, acts, 0, nil)
	eq, err := EquivalentContext(context.Background(), div, dead, KindDivBranching)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("divergent system cannot be ≈div to a deadlock")
	}
	p := mustPartition(t, div, KindDivBranching)
	if !p.SameBlock(0, 1) {
		t.Fatal("a state that inertly reaches a divergent cycle in its own class is divergent")
	}
	eq, err = EquivalentContext(context.Background(), div, dead, KindBranching)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("plain ≈ equates the divergent system with the deadlock")
	}
}

func TestQuotientDefinition(t *testing.T) {
	acts := lts.NewAlphabet()
	// tau chain then a: quotient should be 2 states, 1 visible edge.
	l := buildLTS(t, acts, 0, [][3]interface{}{
		{0, lts.TauName, 1}, {1, lts.TauName, 2}, {2, "a", 3},
	})
	q, p := mustReduce(t, l)
	if p.Num != 2 {
		t.Fatalf("partition blocks = %d, want 2", p.Num)
	}
	if q.NumStates() != 2 || q.NumTransitions() != 1 || q.CountTau() != 0 {
		t.Fatalf("quotient: states=%d trans=%d tau=%d", q.NumStates(), q.NumTransitions(), q.CountTau())
	}
	eq, err := EquivalentContext(context.Background(), l, q, KindBranching)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("quotient must be branching bisimilar to the original")
	}
}

func TestQuotientKeepsNonInertTau(t *testing.T) {
	acts := lts.NewAlphabet()
	// A state where taking tau loses an option: 0 --tau--> 1 and
	// 0 --a--> 2, 1 --b--> 3. 0 and 1 are not bisimilar so the tau is
	// non-inert and must survive in the quotient.
	l := buildLTS(t, acts, 0, [][3]interface{}{
		{0, lts.TauName, 1}, {0, "a", 2}, {1, "b", 3},
	})
	q, p := mustReduce(t, l)
	if p.SameBlock(0, 1) {
		t.Fatal("0 and 1 must be distinguished")
	}
	if q.CountTau() != 1 {
		t.Fatalf("quotient tau count = %d, want 1", q.CountTau())
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindStrong:       "strong",
		KindBranching:    "branching",
		KindDivBranching: "divergence-sensitive branching",
		KindWeak:         "weak",
		Kind(99):         "Kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind %d String = %q, want %q", int(k), got, want)
		}
	}
	if _, err := PartitionContext(context.Background(), buildLTS(t, lts.NewAlphabet(), 0, nil), Kind(99)); err == nil {
		t.Fatal("unknown kind must error")
	}
}

// randomLTS builds a deterministic pseudo-random LTS for property tests.
func randomLTS(r *rand.Rand, acts *lts.Alphabet, n, m int, actNames []string) *lts.LTS {
	b := lts.NewBuilder(acts)
	b.SetInit(0)
	b.AddStates(n)
	for i := 0; i < m; i++ {
		src := r.Intn(n)
		dst := r.Intn(n)
		name := actNames[r.Intn(len(actNames))]
		b.Add(src, name, dst)
	}
	return b.Build()
}

// refines reports whether partition fine refines partition coarse.
func refines(fine, coarse *Partition) bool {
	rep := make(map[int32]int32)
	for s := range fine.BlockOf {
		fb := fine.BlockOf[s]
		cb := coarse.BlockOf[s]
		if prev, ok := rep[fb]; ok {
			if prev != cb {
				return false
			}
		} else {
			rep[fb] = cb
		}
	}
	return true
}

func TestRefinementHierarchyOnRandomSystems(t *testing.T) {
	names := []string{lts.TauName, lts.TauName, "a", "b"}
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		acts := lts.NewAlphabet()
		n := 3 + r.Intn(12)
		m := 1 + r.Intn(3*n)
		l := randomLTS(r, acts, n, m, names)
		strong := mustPartition(t, l, KindStrong)
		br := mustPartition(t, l, KindBranching)
		div := mustPartition(t, l, KindDivBranching)
		weak := mustPartition(t, l, KindWeak)
		if !refines(strong, br) {
			t.Fatalf("seed %d: strong does not refine branching", seed)
		}
		if !refines(div, br) {
			t.Fatalf("seed %d: ≈div does not refine ≈", seed)
		}
		if !refines(br, weak) {
			t.Fatalf("seed %d: branching does not refine weak", seed)
		}
		if !refines(strong, div) {
			t.Fatalf("seed %d: strong does not refine ≈div", seed)
		}

		// Quotient idempotence: reducing the quotient changes nothing.
		q, p := mustReduce(t, l)
		q2, p2 := mustReduce(t, q)
		if p2.Num != p.Num || q2.NumStates() != q.NumStates() {
			t.Fatalf("seed %d: quotient not idempotent (%d -> %d blocks)", seed, p.Num, p2.Num)
		}
		// Quotient is branching bisimilar to the original.
		eq, err := EquivalentContext(context.Background(), l, q, KindBranching)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("seed %d: quotient not bisimilar to original", seed)
		}
		// Every system is equivalent to itself under every notion.
		for _, k := range []Kind{KindStrong, KindBranching, KindDivBranching, KindWeak} {
			eq, err := EquivalentContext(context.Background(), l, l, k)
			if err != nil {
				t.Fatal(err)
			}
			if !eq {
				t.Fatalf("seed %d: %v not reflexive", seed, k)
			}
		}
	}
}

func TestBranchingPartitionIsCongruenceForTauLoops(t *testing.T) {
	// Lemma 5.6: all states on a tau cycle are branching bisimilar.
	acts := lts.NewAlphabet()
	l := buildLTS(t, acts, 0, [][3]interface{}{
		{0, lts.TauName, 1}, {1, lts.TauName, 2}, {2, lts.TauName, 0},
		{1, "a", 3},
	})
	p := mustPartition(t, l, KindBranching)
	if !p.SameBlock(0, 1) || !p.SameBlock(1, 2) {
		t.Fatal("tau-cycle states must share a block")
	}
}

// mustPartition is PartitionContext under a background context.
func mustPartition(t testing.TB, l *lts.LTS, k Kind) *Partition {
	t.Helper()
	p, err := PartitionContext(context.Background(), l, k)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mustReduce is ReduceBranchingContext under a background context.
func mustReduce(t testing.TB, l *lts.LTS) (*lts.LTS, *Partition) {
	t.Helper()
	q, p, err := ReduceBranchingContext(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	return q, p
}

// TestWideAlphabetEdgesStayDistinct pins the exact edge dedup keys of the
// τ-SCC collapse and of Quotient: two edges between the same pair of
// states whose action IDs differ by 65,536 are different capabilities.
// Keys that packed only the low 16 bits of the action ID merged them, so
// the system below was reported bisimilar to its a2-only part.
func TestWideAlphabetEdgesStayDistinct(t *testing.T) {
	acts := lts.NewAlphabet()
	for i := 1; i <= 65538; i++ {
		acts.ID(fmt.Sprintf("a%d", i))
	}
	a2, _ := acts.Lookup("a2")
	wide, _ := acts.Lookup("a65538")
	build := func(ids ...lts.ActionID) *lts.LTS {
		b := lts.NewBuilder(acts)
		b.SetInit(0)
		for _, id := range ids {
			b.AddID(0, id, 1)
		}
		return b.Build()
	}
	both, only := build(a2, wide), build(a2)
	for _, k := range []Kind{KindStrong, KindBranching, KindDivBranching, KindWeak} {
		eq, err := EquivalentContext(context.Background(), both, only, k)
		if err != nil {
			t.Fatal(err)
		}
		if eq {
			t.Errorf("%v: 0 --a2--> 1 + 0 --a65538--> 1 must not be bisimilar to 0 --a2--> 1", k)
		}
	}
	if q, _ := mustReduce(t, both); q.NumTransitions() != 2 {
		t.Errorf("quotient has %d transitions, want 2", q.NumTransitions())
	}
}
