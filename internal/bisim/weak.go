package bisim

import (
	"context"

	"repro/internal/lts"
)

// WeakContext computes the weak bisimulation partition of l (Milner's ≈w, as
// discussed in Section VII of the paper). Weak bisimulation matches a τ
// step by any number of τ steps and a visible step a by τ* a τ*, without
// the branching-bisimulation requirement that intermediate states remain
// related.
//
// The computation materializes the τ-closure of every state, so it is
// intended for moderately sized systems (the paper's Table VII instances);
// branching bisimulation should be preferred at scale. The refinement
// loop polls ctx once per round and returns a *CanceledError when it is
// done.
func WeakContext(ctx context.Context, l *lts.LTS) (*Partition, error) {
	return weak(ctx, l, false)
}

// DivergenceSensitiveWeakContext computes weak bisimulation with
// explicit divergence (the "~w with explicit divergence" of Section VII):
// states on τ-cycles are additionally marked with a fresh visible
// self-loop δ before refinement, so related states must agree on the
// ability to diverge. Cancellation is as for WeakContext.
func DivergenceSensitiveWeakContext(ctx context.Context, l *lts.LTS) (*Partition, error) {
	return weak(ctx, l, true)
}

func weak(ctx context.Context, l *lts.LTS, divSensitive bool) (*Partition, error) {
	if divSensitive {
		checkDivergenceReserve(l.Acts.Len())
	}
	n := l.NumStates()
	closure := tauClosures(l)
	divergent := make([]bool, n)
	if divSensitive {
		scc := lts.TauSCCs(l)
		for s := 0; s < n; s++ {
			divergent[s] = scc.Divergent[scc.Comp[s]]
		}
	}
	p := uniform(n)
	var (
		key      []uint64
		blockSet = make([]bool, 0)
	)
	// blocksOf collects the distinct blocks of a state's τ-closure.
	blocksOf := func(s int32, pb []int32, dst []uint64, act lts.ActionID) []uint64 {
		if cap(blockSet) < p.Num {
			blockSet = make([]bool, p.Num)
		}
		bs := blockSet[:p.Num]
		for _, t := range closure[s] {
			bs[pb[t]] = true
		}
		for b, ok := range bs {
			if ok {
				dst = append(dst, sigPair(act, int32(b)))
				bs[b] = false
			}
		}
		return dst
	}
	for rounds := 1; ; rounds++ {
		if err := checkCtx(ctx, "weak refinement"); err != nil {
			return nil, err
		}
		var table sigIntern
		next := make([]int32, n)
		for s := 0; s < n; s++ {
			key = append(key[:0], uint64(p.BlockOf[s]))
			// (τ, P(t)) for every s ⇒ t, including t = s.
			key = blocksOf(int32(s), p.BlockOf, key, lts.Tau)
			// (a, P(t)) for every s ⇒ u --a--> v ⇒ t with a visible.
			// A divergent u contributes a δ self-loop: s ⇒ u --δ--> u ⇒ t.
			for _, u := range closure[int32(s)] {
				if divergent[u] {
					key = blocksOf(u, p.BlockOf, key, divergenceAction)
				}
				for _, tr := range l.Succ(u) {
					if lts.IsTau(tr.Action) {
						continue
					}
					key = blocksOf(tr.Dst, p.BlockOf, key, tr.Action)
				}
			}
			next[s] = table.intern(blockKey(key))
		}
		num := table.tab.Len()
		if num == p.Num {
			p.Rounds = rounds
			return p, nil
		}
		p = &Partition{BlockOf: next, Num: num}
	}
}

// tauClosures returns, for every state, the sorted list of states
// reachable by zero or more τ steps. τ-SCCs are collapsed first so each
// closure is computed once per component and shared.
func tauClosures(l *lts.LTS) [][]int32 {
	scc := lts.TauSCCs(l)
	nc := scc.NumComps
	// members[c] lists the original states of component c.
	members := make([][]int32, nc)
	for s := 0; s < l.NumStates(); s++ {
		c := scc.Comp[s]
		members[c] = append(members[c], int32(s))
	}
	// τ successors between components; components are numbered in reverse
	// topological order, so edges go from higher to lower IDs.
	compSucc := make(map[int64]struct{})
	succList := make([][]int32, nc)
	for s := 0; s < l.NumStates(); s++ {
		cs := scc.Comp[s]
		for _, tr := range l.Succ(int32(s)) {
			if !lts.IsTau(tr.Action) {
				continue
			}
			cd := scc.Comp[tr.Dst]
			if cd == cs {
				continue
			}
			key := int64(cs)<<32 | int64(cd)
			if _, ok := compSucc[key]; !ok {
				compSucc[key] = struct{}{}
				succList[cs] = append(succList[cs], cd)
			}
		}
	}
	// closure of a component = its members plus closure of τ successors,
	// computed in increasing component order (reverse topological).
	compClosure := make([][]int32, nc)
	seen := make([]int32, nc) // stamp per component to dedup
	for i := range seen {
		seen[i] = -1
	}
	for c := 0; c < nc; c++ {
		var cl []int32
		var stack []int32
		stack = append(stack, int32(c))
		seen[c] = int32(c)
		for len(stack) > 0 {
			d := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cl = append(cl, members[d]...)
			for _, e := range succList[d] {
				if seen[e] != int32(c) {
					seen[e] = int32(c)
					stack = append(stack, e)
				}
			}
		}
		compClosure[c] = cl
	}
	out := make([][]int32, l.NumStates())
	for s := 0; s < l.NumStates(); s++ {
		out[s] = compClosure[scc.Comp[s]]
	}
	return out
}
