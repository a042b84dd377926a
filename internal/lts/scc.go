package lts

// TauSCC is the result of decomposing an LTS's τ-subgraph into strongly
// connected components.
type TauSCC struct {
	// Comp maps each state to its component index. Components are numbered
	// in reverse topological order of the τ-DAG: every τ transition that
	// crosses components goes from a higher-numbered to a lower-numbered
	// component.
	Comp []int32
	// NumComps is the number of components.
	NumComps int
	// Divergent[c] reports whether component c contains a τ-cycle: it has
	// more than one state, or a single state with a τ self-loop. States in
	// such components are exactly the states that can diverge without
	// leaving their branching-bisimulation class via that cycle
	// (Lemma 5.6 of the paper).
	Divergent []bool
}

// TauSCCs returns the strongly connected components of l's τ-subgraph.
// They are computed once per LTS, by an iterative Tarjan algorithm, and
// memoized on it: every caller — the τ-collapse, the divergence lasso,
// HasTauCycle, weak bisimulation and witness replay — shares one
// decomposition, so callers must treat the result as read-only. It is
// safe to call concurrently.
func TauSCCs(l *LTS) *TauSCC {
	l.sccOnce.Do(func() { l.scc = tauSCCs(l) })
	return l.scc
}

// tauSCCs is the Tarjan pass behind TauSCCs.
func tauSCCs(l *LTS) *TauSCC {
	n := l.NumStates()
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	comp := make([]int32, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = -1
	}
	var (
		stack     []int32 // Tarjan stack
		callS     []int32 // DFS: state
		callE     []int32 // DFS: next edge offset within Succ(state)
		next      int32
		divergent []bool
		ncomp     int32
	)
	selfLoop := make([]bool, n)

	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		callS = append(callS[:0], int32(root))
		callE = append(callE[:0], 0)
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(callS) > 0 {
			v := callS[len(callS)-1]
			succ := l.Succ(v)
			advanced := false
			for ei := callE[len(callE)-1]; int(ei) < len(succ); ei++ {
				t := succ[ei]
				if !IsTau(t.Action) {
					continue
				}
				w := t.Dst
				if w == v {
					selfLoop[v] = true
				}
				if index[w] == unvisited {
					callE[len(callE)-1] = ei + 1
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					callS = append(callS, w)
					callE = append(callE, 0)
					advanced = true
					break
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished.
			callS = callS[:len(callS)-1]
			callE = callE[:len(callE)-1]
			if len(callS) > 0 {
				p := callS[len(callS)-1]
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				size := 0
				div := false
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					size++
					if selfLoop[w] {
						div = true
					}
					if w == v {
						break
					}
				}
				divergent = append(divergent, div || size > 1)
				ncomp++
			}
		}
	}
	return &TauSCC{Comp: comp, NumComps: int(ncomp), Divergent: divergent}
}

// CollapseTauSCCs returns an LTS in which every τ-SCC of l is merged into
// a single state. All states on a τ-cycle are branching bisimilar
// (Lemma 5.6), so the collapse preserves branching bisimilarity; it also
// preserves divergence information through the scc.Divergent flags, which
// are reindexed to the new states by the returned mapping.
//
// The returned stateOf maps original states to collapsed states (it is
// exactly scc.Comp). The collapse is Lift(l, scc.Comp, scc.NumComps).
func CollapseTauSCCs(l *LTS, scc *TauSCC) (collapsed *LTS, stateOf []int32) {
	return Lift(l, scc.Comp, scc.NumComps), scc.Comp
}

// Lift returns the LTS over the n classes of classOf, which maps every
// state of l to a class in [0, n): the initial class is l's, and every
// transition becomes one between the classes of its endpoints. τ
// transitions inside a class disappear, and transitions that coincide
// after lifting are kept once, with the label of the first one in state
// order. The result is deterministic in l and classOf.
func Lift(l *LTS, classOf []int32, n int) *LTS {
	// members lists the states of class c, in increasing order, at
	// members[start[c]:start[c+1]].
	start := make([]int32, n+1)
	for _, c := range classOf {
		start[c+1]++
	}
	for c := 0; c < n; c++ {
		start[c+1] += start[c]
	}
	members := make([]int32, len(classOf))
	next := append([]int32(nil), start[:n]...)
	for s, c := range classOf {
		members[next[c]] = int32(s)
		next[c]++
	}
	b := NewCSRBuilder(l.Acts, l.Labels)
	// A class's emitted row is deduplicated on the exact (target class,
	// action) pair. Up to shortRow edges a scan of the row itself is
	// cheapest; a longer row moves its pairs, packed into 64 bits, into
	// seen, which is then cleared only for the classes that used it.
	const shortRow = 16
	key := func(d int32, a ActionID) uint64 { return uint64(uint32(d))<<32 | uint64(uint32(a)) }
	seen := make(map[uint64]struct{})
	for c := int32(0); int(c) < n; c++ {
		b.BeginState(c) // classes arrive in increasing order, so it cannot fail
		mapped := false
		for _, s := range members[start[c]:start[c+1]] {
			for _, t := range l.Succ(s) {
				d := classOf[t.Dst]
				if IsTau(t.Action) && d == c {
					continue
				}
				if mapped {
					if _, dup := seen[key(d, t.Action)]; dup {
						continue
					}
					seen[key(d, t.Action)] = struct{}{}
				} else if rowHas(b.row(), d, t.Action) {
					continue
				}
				b.Emit(t.Action, t.Label, d)
				if !mapped && len(b.row()) > shortRow {
					mapped = true
					if len(seen) > 64 {
						seen = make(map[uint64]struct{}) // clear would cost the peak capacity
					} else {
						clear(seen)
					}
					for _, e := range b.row() {
						seen[key(e.Dst, e.Action)] = struct{}{}
					}
				}
			}
		}
	}
	return b.Build(n, classOf[l.Init])
}

// rowHas reports whether row holds an edge to d labelled a.
func rowHas(row []Transition, d int32, a ActionID) bool {
	for _, e := range row {
		if e.Dst == d && e.Action == a {
			return true
		}
	}
	return false
}

// HasTauCycle reports whether any state reachable from the initial state
// lies on a τ-cycle, and returns one such state. In the object systems of
// this library a reachable τ-cycle is exactly a lock-freedom violation
// (a divergence that performs no return action).
func HasTauCycle(l *LTS) (state int32, ok bool) {
	scc := TauSCCs(l)
	reach := Reachable(l)
	for s := 0; s < l.NumStates(); s++ {
		if reach[s] && scc.Divergent[scc.Comp[s]] {
			return int32(s), true
		}
	}
	return 0, false
}

// Reachable returns the set of states reachable from the initial state.
func Reachable(l *LTS) []bool {
	seen := make([]bool, l.NumStates())
	queue := []int32{l.Init}
	seen[l.Init] = true
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, t := range l.Succ(s) {
			if !seen[t.Dst] {
				seen[t.Dst] = true
				queue = append(queue, t.Dst)
			}
		}
	}
	return seen
}
