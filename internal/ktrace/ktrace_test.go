package ktrace

import (
	"context"
	"math/rand"
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

// TestFig6Shape reproduces the abstract shape of Fig. 6 of the paper:
// a τ step s1 → s3 whose endpoints are 1-trace equivalent but 2-trace
// inequivalent, because s3 must pass through an intermediate class that
// s1 can bypass.
func TestFig6Shape(t *testing.T) {
	acts := lts.NewAlphabet()
	// States: 0=s1, 1=s2, 2=s3, 3=s4, 4=s5, 5..8 targets.
	l := build(t, acts, 0, [][3]interface{}{
		{0, lts.TauName, 1},      // s1 -> s2
		{0, lts.TauName, 2},      // s1 -> s3  (the LP-like step)
		{2, lts.TauName, 3},      // s3 -> s4
		{3, lts.TauName, 4},      // s4 -> s5
		{1, "a", 5},              // T1(s2) = {a}
		{4, "a", 6},              // T1(s5) = {a}
		{3, "a", 7}, {3, "b", 7}, // T1(s4) = {a,b}
		{2, "c", 8}, // pads T1(s3) to {a,b,c} = T1(s1)
	})
	a := Analyze(l, 8)
	p1 := a.Equivalence(1)
	p2 := a.Equivalence(2)
	if !p1.SameBlock(0, 2) {
		t.Fatal("s1 and s3 must be 1-trace equivalent")
	}
	if !p1.SameBlock(1, 4) {
		t.Fatal("s2 and s5 must be 1-trace equivalent")
	}
	if p1.SameBlock(3, 4) || p1.SameBlock(2, 3) {
		t.Fatal("s4 must differ from s3 and s5 at level 1")
	}
	if p2.SameBlock(0, 2) {
		t.Fatal("s1 and s3 must be 2-trace inequivalent")
	}
	c := Classify(l, a)
	if c.Eq1Neq2 == nil {
		t.Fatal("classification must find a (≡1, ≢2) tau step")
	}
	if c.Eq1Neq2.From != 0 || c.Eq1Neq2.To != 2 {
		t.Fatalf("classified step = %d->%d, want 0->2", c.Eq1Neq2.From, c.Eq1Neq2.To)
	}
	if c.Neq1 == nil {
		t.Fatal("the inert-to-level-1 taus (e.g. s3->s4) must be found as ≢1")
	}
}

// TestTraceVsBisim uses the classic a.(b+c) vs a.b + a.c pair: initial
// states are trace equivalent but separate at level 2.
func TestTraceVsBisim(t *testing.T) {
	acts := lts.NewAlphabet()
	// p: 0 -a-> 1, 1 -b-> 2, 1 -c-> 3
	// q: 4 -a-> 5, 4 -a-> 6, 5 -b-> 7, 6 -c-> 8
	b := lts.NewBuilder(acts)
	b.SetInit(0)
	b.Add(0, "a", 1)
	b.Add(1, "b", 2)
	b.Add(1, "c", 3)
	b.Add(4, "a", 5)
	b.Add(4, "a", 6)
	b.Add(5, "b", 7)
	b.Add(6, "c", 8)
	l := b.Build()
	a := Analyze(l, 8)
	p1, p2 := a.Equivalence(1), a.Equivalence(2)
	if !p1.SameBlock(0, 4) {
		t.Fatal("p and q are trace equivalent")
	}
	if p2.SameBlock(0, 4) {
		t.Fatal("p and q must separate at level 2")
	}
	if !a.Converged {
		t.Fatal("hierarchy must converge")
	}
	if a.Cap < 2 {
		t.Fatalf("cap = %d, want >= 2", a.Cap)
	}
}

func TestDeterministicSystemCapIsOne(t *testing.T) {
	acts := lts.NewAlphabet()
	l := build(t, acts, 0, [][3]interface{}{
		{0, "a", 1}, {1, "b", 2},
	})
	a := Analyze(l, 8)
	if !a.Converged || a.Cap != 1 {
		t.Fatalf("deterministic tau-free system: converged=%v cap=%d, want cap 1", a.Converged, a.Cap)
	}
}

func TestEquivalenceClamping(t *testing.T) {
	acts := lts.NewAlphabet()
	l := build(t, acts, 0, [][3]interface{}{{0, "a", 1}})
	a := Analyze(l, 8)
	if a.Equivalence(0) != a.Equivalence(1) {
		t.Fatal("Equivalence(0) should clamp to level 1")
	}
	if a.Equivalence(100) != a.Equivalence(len(a.Partitions)) {
		t.Fatal("Equivalence above the computed levels should clamp")
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

// TestCapEqualsBranchingBisimulation cross-validates Theorem 4.3: the
// limit of the k-trace hierarchy is exactly branching bisimilarity.
func TestCapEqualsBranchingBisimulation(t *testing.T) {
	names := []string{lts.TauName, lts.TauName, "a", "b"}
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		acts := lts.NewAlphabet()
		n := 2 + r.Intn(9)
		l := randomLTS(r, acts, n, 1+r.Intn(2*n), names)
		a := Analyze(l, 32)
		if !a.Converged {
			t.Fatalf("seed %d: hierarchy did not converge in 32 levels", seed)
		}
		lim := a.Equivalence(len(a.Partitions))
		br, _ := bisim.BranchingContext(context.Background(), l)
		if lim.Num != br.Num {
			t.Fatalf("seed %d: cap partition has %d blocks, branching has %d", seed, lim.Num, br.Num)
		}
		if !samePartition(lim, br) {
			t.Fatalf("seed %d: cap partition differs from branching bisimulation", seed)
		}
	}
}

// TestHierarchyMonotone checks ≡(k+1) refines ≡k level by level.
func TestHierarchyMonotone(t *testing.T) {
	names := []string{lts.TauName, "a", "b", "c"}
	for seed := int64(200); seed < 220; seed++ {
		r := rand.New(rand.NewSource(seed))
		acts := lts.NewAlphabet()
		n := 2 + r.Intn(8)
		l := randomLTS(r, acts, n, 1+r.Intn(2*n), names)
		a := Analyze(l, 16)
		for i := 1; i < len(a.Partitions); i++ {
			fine, coarse := a.Partitions[i], a.Partitions[i-1]
			rep := make(map[int32]int32)
			for s := range fine.BlockOf {
				if prev, ok := rep[fine.BlockOf[s]]; ok {
					if prev != coarse.BlockOf[s] {
						t.Fatalf("seed %d: level %d does not refine level %d", seed, i+1, i)
					}
				} else {
					rep[fine.BlockOf[s]] = coarse.BlockOf[s]
				}
			}
		}
	}
}

func samePartition(a, b *bisim.Partition) bool {
	if len(a.BlockOf) != len(b.BlockOf) {
		return false
	}
	fwd := make(map[int32]int32)
	bwd := make(map[int32]int32)
	for s := range a.BlockOf {
		x, y := a.BlockOf[s], b.BlockOf[s]
		if v, ok := fwd[x]; ok && v != y {
			return false
		}
		if v, ok := bwd[y]; ok && v != x {
			return false
		}
		fwd[x] = y
		bwd[y] = x
	}
	return true
}

// TestTauCycleSafety: class-preserving tau cycles must not hang the
// closure computation, and cycle states must be equivalent at every
// level.
func TestTauCycleSafety(t *testing.T) {
	acts := lts.NewAlphabet()
	l := build(t, acts, 0, [][3]interface{}{
		{0, lts.TauName, 1}, {1, lts.TauName, 0}, // tau cycle
		{1, "a", 2}, {0, "a", 2},
	})
	a := Analyze(l, 8)
	if !a.Converged {
		t.Fatal("hierarchy must converge on cyclic systems")
	}
	for k := 1; k <= len(a.Partitions); k++ {
		if !a.Equivalence(k).SameBlock(0, 1) {
			t.Fatalf("tau-cycle states must be equivalent at level %d", k)
		}
	}
}

// TestClassifyNoTauSteps: a system without tau steps classifies nothing.
func TestClassifyNoTauSteps(t *testing.T) {
	acts := lts.NewAlphabet()
	l := build(t, acts, 0, [][3]interface{}{{0, "a", 1}})
	a := Analyze(l, 4)
	c := Classify(l, a)
	if c.Neq1 != nil || c.Eq1Neq2 != nil {
		t.Fatal("no tau steps to classify")
	}
}
