package bisim

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lts"
)

// quickLTS builds a deterministic random LTS from a seed.
func quickLTS(seed int64) *lts.LTS {
	r := rand.New(rand.NewSource(seed))
	acts := lts.NewAlphabet()
	names := []string{lts.TauName, lts.TauName, "a", "b", "c"}
	n := 2 + r.Intn(10)
	b := lts.NewBuilder(acts)
	b.SetInit(0)
	b.AddStates(n)
	m := 1 + r.Intn(3*n)
	for i := 0; i < m; i++ {
		b.Add(r.Intn(n), names[r.Intn(len(names))], r.Intn(n))
	}
	return b.Build()
}

// TestQuickQuotientBisimilarToOriginal: Δ ≈ Δ/≈ for arbitrary systems.
func TestQuickQuotientBisimilarToOriginal(t *testing.T) {
	prop := func(seed int64) bool {
		l := quickLTS(seed)
		q, _ := mustReduce(t, l)
		eq, err := EquivalentContext(context.Background(), l, q, KindBranching)
		return err == nil && eq
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDivergenceAgreement: Δ ≈div Δ/≈ exactly when Δ has no
// reachable τ-cycle (the engine-level content of Theorem 5.9).
func TestQuickDivergenceAgreement(t *testing.T) {
	prop := func(seed int64) bool {
		l := quickLTS(seed)
		q, _ := mustReduce(t, l)
		eq, err := EquivalentContext(context.Background(), l, q, KindDivBranching)
		if err != nil {
			return false
		}
		_, cyc := lts.HasTauCycle(l)
		return eq == !cyc
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPartitionsAreBisimulations verifies the transfer property of
// the computed branching partition directly against Definition 4.1
// (stuttering form): for every pair of equivalent states and every
// transition of one, the other can match it.
func TestQuickPartitionsAreBisimulations(t *testing.T) {
	prop := func(seed int64) bool {
		l := quickLTS(seed)
		p := mustPartition(t, l, KindBranching)
		return checkBranchingTransfer(l, p)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// checkBranchingTransfer exhaustively checks the branching-bisimulation
// transfer condition for partition p on l (small systems only).
func checkBranchingTransfer(l *lts.LTS, p *Partition) bool {
	n := l.NumStates()
	// inertReach[s] = states reachable from s via inert taus.
	inertReach := make([][]int32, n)
	for s := int32(0); int(s) < n; s++ {
		seen := map[int32]bool{s: true}
		stack := []int32{s}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			inertReach[s] = append(inertReach[s], u)
			for _, tr := range l.Succ(u) {
				if lts.IsTau(tr.Action) && p.BlockOf[tr.Dst] == p.BlockOf[s] && !seen[tr.Dst] {
					seen[tr.Dst] = true
					stack = append(stack, tr.Dst)
				}
			}
		}
	}
	// match reports whether s2 can answer s1 --act--> d1.
	match := func(s1, s2 int32, act lts.ActionID, d1 int32) bool {
		if lts.IsTau(act) && p.BlockOf[d1] == p.BlockOf[s1] {
			return true // inert: matched by staying put
		}
		for _, u := range inertReach[s2] {
			for _, tr := range l.Succ(u) {
				if tr.Action == act && p.BlockOf[tr.Dst] == p.BlockOf[d1] {
					return true
				}
			}
		}
		return false
	}
	for s1 := int32(0); int(s1) < n; s1++ {
		for s2 := int32(0); int(s2) < n; s2++ {
			if p.BlockOf[s1] != p.BlockOf[s2] {
				continue
			}
			for _, tr := range l.Succ(s1) {
				if !match(s1, s2, tr.Action, tr.Dst) {
					return false
				}
			}
		}
	}
	return true
}

// TestQuickWeakCoarsensBranching: the weak partition never splits a
// branching block.
func TestQuickWeakCoarsensBranching(t *testing.T) {
	prop := func(seed int64) bool {
		l := quickLTS(seed)
		br := mustPartition(t, l, KindBranching)
		wk := mustPartition(t, l, KindWeak)
		rep := make(map[int32]int32)
		for s := range br.BlockOf {
			if prev, ok := rep[br.BlockOf[s]]; ok {
				if prev != wk.BlockOf[s] {
					return false
				}
			} else {
				rep[br.BlockOf[s]] = wk.BlockOf[s]
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEquivalenceIsSymmetric: EquivalentContext(a,b) ==
// EquivalentContext(b,a) for every notion.
func TestQuickEquivalenceIsSymmetric(t *testing.T) {
	prop := func(seedA, seedB int64) bool {
		// Share one alphabet across both systems.
		r1 := rand.New(rand.NewSource(seedA))
		r2 := rand.New(rand.NewSource(seedB))
		acts := lts.NewAlphabet()
		build := func(r *rand.Rand) *lts.LTS {
			names := []string{lts.TauName, "a", "b"}
			n := 2 + r.Intn(6)
			b := lts.NewBuilder(acts)
			b.SetInit(0)
			b.AddStates(n)
			for i := 0; i < 1+r.Intn(2*n); i++ {
				b.Add(r.Intn(n), names[r.Intn(len(names))], r.Intn(n))
			}
			return b.Build()
		}
		a, b := build(r1), build(r2)
		for _, k := range []Kind{KindStrong, KindBranching, KindDivBranching, KindWeak} {
			ab, err1 := EquivalentContext(context.Background(), a, b, k)
			ba, err2 := EquivalentContext(context.Background(), b, a, k)
			if err1 != nil || err2 != nil || ab != ba {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDivWeakRefinesWeakAndCoarsensDivBranching checks the lattice
// position of weak bisimulation with explicit divergence.
func TestQuickDivWeakRefinesWeakAndCoarsensDivBranching(t *testing.T) {
	refines := func(fine, coarse *Partition) bool {
		rep := make(map[int32]int32)
		for s := range fine.BlockOf {
			if prev, ok := rep[fine.BlockOf[s]]; ok {
				if prev != coarse.BlockOf[s] {
					return false
				}
			} else {
				rep[fine.BlockOf[s]] = coarse.BlockOf[s]
			}
		}
		return true
	}
	prop := func(seed int64) bool {
		l := quickLTS(seed)
		dw := mustPartition(t, l, KindDivWeak)
		return refines(dw, mustPartition(t, l, KindWeak)) && refines(mustPartition(t, l, KindDivBranching), dw)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestDivWeakDistinguishesDivergence(t *testing.T) {
	acts := lts.NewAlphabet()
	a := buildLTS(t, acts, 0, [][3]interface{}{{0, "a", 1}})
	b := buildLTS(t, acts, 0, [][3]interface{}{{0, "a", 1}, {1, lts.TauName, 1}})
	eq, err := EquivalentContext(context.Background(), a, b, KindWeak)
	if err != nil || !eq {
		t.Fatalf("plain weak should equate them (eq=%v err=%v)", eq, err)
	}
	eq, err = EquivalentContext(context.Background(), a, b, KindDivWeak)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("divergence-sensitive weak must reject the tau loop")
	}
}
