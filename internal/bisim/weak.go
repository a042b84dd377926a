package bisim

import (
	"context"
	"slices"

	"repro/internal/lts"
)

// weak computes the weak bisimulation partition of l (Milner's ~w, as
// discussed in Section VII of the paper), or, when divSensitive, weak
// bisimulation with explicit divergence (the "~w with explicit
// divergence" of Section VII). Weak bisimulation matches a τ step by any
// number of τ steps and a visible step a by τ* a τ*, without the
// branching-bisimulation requirement that intermediate states remain
// related; with explicit divergence, related states must also agree on
// the ability to diverge.
//
// Both are computed on the branching quotient: ≈ ⊆ ~w and ≈div ⊆ ~w-div,
// so every round of naive weak refinement is coarser than ≈ (≈div), and
// refining the quotient yields the same partitions round by round. The
// quotient's τ-saturation (saturate) turns weak into strong refinement,
// which the splitter runs; the result is lifted back and renumbered by
// first occurrence over l's states, as naive refinement numbers blocks.
// Only the quotient is saturated, so the τ-closures stay small even when
// l is large.
func weak(ctx context.Context, l *lts.LTS, divSensitive bool) (*Partition, error) {
	checkReservedActions(l.Acts.Len())
	bp, err := branching(ctx, l, divSensitive)
	if err != nil {
		return nil, err
	}
	q := lts.Lift(l, bp.BlockOf, bp.Num)
	divergent := make([]bool, bp.Num)
	if divSensitive {
		scc := lts.TauSCCs(l)
		for s, b := range bp.BlockOf {
			divergent[b] = divergent[b] || scc.Divergent[scc.Comp[s]]
		}
	}
	qp, _, err := splitterOnDAG(ctx, saturate(q, divergent), make([]bool, bp.Num))
	if err != nil {
		return nil, err
	}
	renum := make([]int32, qp.Num)
	for i := range renum {
		renum[i] = -1
	}
	blockOf := make([]int32, len(bp.BlockOf))
	var num int32
	for s, b := range bp.BlockOf {
		qb := qp.BlockOf[b]
		if renum[qb] < 0 {
			renum[qb] = num
			num++
		}
		blockOf[s] = renum[qb]
	}
	return &Partition{BlockOf: blockOf, Num: int(num), Rounds: qp.Rounds}, nil
}

// saturate returns the τ-free system whose strong bisimilarity is weak
// bisimilarity of l, with explicit divergence at the divergent states:
//
//	s --τ̂--> t  for every t ∈ τ*(s), s itself included;
//	s --a--> t  for every s ⇒ u --a--> v ⇒ t with a visible;
//	s --δ--> t  for every s ⇒ u ⇒ t with u divergent.
//
// Each state's edges are distinct.
func saturate(l *lts.LTS, divergent []bool) *lts.LTS {
	n := l.NumStates()
	closure := tauClosures(l)
	b := lts.NewCSRBuilder(l.Acts, nil)
	// seen[t] == stamp marks the targets already emitted for the current
	// (state, action) pair.
	seen := make([]int32, n)
	stamp := int32(0)
	emit := func(a lts.ActionID, from []int32) {
		for _, t := range from {
			if seen[t] != stamp {
				seen[t] = stamp
				b.Emit(a, lts.NoLabel, t)
			}
		}
	}
	var steps []uint64 // (a<<32 | v) for every s ⇒ u --a--> v, sorted
	for s := range int32(n) {
		b.BeginState(s) // states arrive in increasing order, so it cannot fail
		stamp++
		emit(tauHat, closure[s])
		stamp++
		steps = steps[:0]
		for _, u := range closure[s] {
			if divergent[u] {
				emit(divergenceAction, closure[u])
			}
			for _, tr := range l.Succ(u) {
				if !lts.IsTau(tr.Action) {
					steps = append(steps, uint64(tr.Action)<<32|uint64(tr.Dst))
				}
			}
		}
		slices.Sort(steps)
		prev := lts.Tau
		for _, st := range slices.Compact(steps) {
			if a := lts.ActionID(st >> 32); a != prev {
				prev = a
				stamp++
			}
			emit(prev, closure[int32(uint32(st))])
		}
	}
	return b.Build(n, l.Init)
}

// tauClosures returns, for every state, the list of states reachable by
// zero or more τ steps. τ-SCCs are collapsed first so each closure is
// computed once per component and shared. Its only caller, saturate, runs
// on a branching quotient, where the closures are short.
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
