package bisim

import (
	"context"
	"slices"

	"repro/internal/lts"
)

// splitTree is the splitting tree built by the splitter refiner. Nodes
// are blocks: leaves form the current partition, inner nodes are blocks
// of earlier rounds that have been split. A node's creation round dates
// the historical partition it first belonged to, which is what witness
// extraction needs: the block of state s after round r is the deepest
// ancestor of s's leaf created in round ≤ r.
//
// The pool holds at most 2n−1 nodes (n leaves, each split creates ≥ 2
// fresh children, so ≤ n−1 inner nodes); membership is a doubly linked
// list per leaf kept in increasing state order, so splits renumber
// deterministically.
type splitTree struct {
	l         *lts.LTS
	divergent []bool
	rounds    int

	parent []int32 // node → parent node, -1 at the root
	round  []int32 // node → creation round (0 for the root)

	head, tail []int32 // node → first/last member state, -1 when inner/empty
	next, prev []int32 // state → neighbours in its leaf's member list
	leafOf     []int32 // state → current leaf node
}

func newSplitTree(l *lts.LTS, divergent []bool) *splitTree {
	n := l.NumStates()
	t := &splitTree{
		l:         l,
		divergent: divergent,
		parent:    make([]int32, 1, 2*n),
		round:     make([]int32, 1, 2*n),
		head:      make([]int32, 1, 2*n),
		tail:      make([]int32, 1, 2*n),
		next:      make([]int32, n),
		prev:      make([]int32, n),
		leafOf:    make([]int32, n),
	}
	t.parent[0], t.head[0], t.tail[0] = -1, -1, -1
	for s := 0; s < n; s++ {
		t.appendMember(0, int32(s))
	}
	return t
}

// newNode allocates a child block created in the given round.
func (t *splitTree) newNode(parent, round int32) int32 {
	id := int32(len(t.parent))
	t.parent = append(t.parent, parent)
	t.round = append(t.round, round)
	t.head = append(t.head, -1)
	t.tail = append(t.tail, -1)
	return id
}

// appendMember links state s at the end of node's member list.
func (t *splitTree) appendMember(node, s int32) {
	t.leafOf[s] = node
	t.prev[s] = t.tail[node]
	t.next[s] = -1
	if t.tail[node] >= 0 {
		t.next[t.tail[node]] = s
	} else {
		t.head[node] = s
	}
	t.tail[node] = s
}

// nodeAt returns the block of state s in the historical partition after
// round r; r = 0 is the initial single-block partition.
func (t *splitTree) nodeAt(s, r int32) int32 {
	n := t.leafOf[s]
	for t.round[n] > r {
		n = t.parent[n]
	}
	return n
}

// sepRound returns the first refinement round whose partition separates u
// and v, or 0 when they ended in the same block (bisimilar).
func (t *splitTree) sepRound(u, v int32) int32 {
	if t.leafOf[u] == t.leafOf[v] {
		return 0
	}
	// Walk v's leaf-to-root chain until it meets an ancestor of u: that
	// meeting point is the lowest common ancestor, and since a node splits
	// atomically in a single round, both chains leave it in the round the
	// LCA's children were created — the first separating round.
	anc := make(map[int32]bool, 8)
	for n := t.leafOf[u]; n >= 0; n = t.parent[n] {
		anc[n] = true
	}
	child := t.leafOf[v]
	for n := t.parent[child]; n >= 0; n = t.parent[n] {
		if anc[n] {
			break
		}
		child = n
	}
	return t.round[child]
}

// hashSig hashes a signature with 64-bit FNV-1a.
func hashSig(sig []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range sig {
		for i := 0; i < 64; i += 8 {
			h ^= uint64(byte(v >> i))
			h *= 1099511628211
		}
	}
	return h
}

// splitterOnDAG runs splitting-tree refinement on a τ-acyclic LTS (the
// τ-SCC collapse) and returns both the final partition and the splitting
// tree for witness extraction.
//
// The τ-SCC collapse numbers components in reverse topological order, so
// every τ transition goes from a higher state ID to a strictly lower one.
// The branching signature of s under partition P is
//
//	sig(s) = { (a, P(t)) | s ⇒ᵢ s' --a--> t, a ≠ τ or P(t) ≠ P(s) }
//
// where ⇒ᵢ is any sequence of inert τ steps (staying inside P(s)), and
// states marked divergent additionally contribute (δ, P(s)), encoding a
// visible δ self-loop. Processing states in increasing ID order lets
// inert-τ signature inheritance find its successors already computed.
//
// Rounds are level-synchronized — round r splits exactly the pairs whose
// round-r signatures w.r.t. the round-(r−1) partition differ — so the
// partition, its block numbering (canonical first-occurrence order) and
// the round count are byte-identical to naive signature refinement, which
// recomputes every signature every round (the oracle in the tests).
// Within a round, only dirty states are reprocessed:
// members of blocks split in the previous round and their predecessors
// (the splitter queue), plus same-block τ-predecessors of states whose
// signature changed this round (inert inheritance cascades up the DAG,
// which increasing-ID processing order makes single-pass).
func splitterOnDAG(ctx context.Context, l *lts.LTS, divergent []bool) (*Partition, *splitTree, error) {
	n := l.NumStates()
	t := newSplitTree(l, divergent)

	// Reverse-edge CSR: predecessors with the action of the incoming edge.
	predOff := make([]int32, n+1)
	for s := 0; s < n; s++ {
		for _, tr := range l.Succ(int32(s)) {
			predOff[tr.Dst+1]++
		}
	}
	for s := 0; s < n; s++ {
		predOff[s+1] += predOff[s]
	}
	predSrc := make([]int32, l.NumTransitions())
	predAct := make([]lts.ActionID, l.NumTransitions())
	fill := append([]int32(nil), predOff[:n]...)
	for s := 0; s < n; s++ {
		for _, tr := range l.Succ(int32(s)) {
			predSrc[fill[tr.Dst]] = int32(s)
			predAct[fill[tr.Dst]] = tr.Action
			fill[tr.Dst]++
		}
	}

	sigs := make([][]uint64, n)
	dirty := make([]bool, n)
	for s := range dirty {
		dirty[s] = true
	}
	var (
		scratch []uint64
		moved   []int32
		cands   []int32
		members []int32
	)
	for round := int32(1); ; round++ {
		if err := checkCtx(ctx, "splitter refinement"); err != nil {
			return nil, nil, err
		}
		cands = cands[:0]
		candSeen := make(map[int32]bool, 8)
		for s := 0; s < n; s++ {
			if !dirty[s] {
				continue
			}
			dirty[s] = false
			sb := t.leafOf[s]
			sig := scratch[:0]
			for _, tr := range l.Succ(int32(s)) {
				tb := t.leafOf[tr.Dst]
				if lts.IsTau(tr.Action) && tb == sb {
					// Inert: inherit the τ-successor's signature. The
					// collapse guarantees tr.Dst < s, so sigs[tr.Dst] is
					// final for this round.
					sig = append(sig, sigs[tr.Dst]...)
					continue
				}
				sig = append(sig, sigPair(tr.Action, tb))
			}
			if divergent[s] {
				sig = append(sig, sigPair(divergenceAction, sb))
			}
			sig = sortDedup(sig)
			if slices.Equal(sig, sigs[s]) {
				scratch = sig
				continue
			}
			sigs[s] = append(sigs[s][:0], sig...)
			scratch = sig
			if !candSeen[sb] {
				candSeen[sb] = true
				cands = append(cands, sb)
			}
			// A same-block τ-predecessor inherits this signature; it has a
			// higher state ID, so this round's sweep still reaches it.
			for pi := predOff[s]; pi < predOff[s+1]; pi++ {
				if lts.IsTau(predAct[pi]) && t.leafOf[predSrc[pi]] == sb {
					dirty[predSrc[pi]] = true
				}
			}
		}
		if len(cands) == 0 {
			t.rounds = int(round)
			break
		}
		slices.Sort(cands)
		moved = moved[:0]
		for _, B := range cands {
			members = members[:0]
			for s := t.head[B]; s >= 0; s = t.next[s] {
				members = append(members, s)
			}
			// Group members by signature, in first-occurrence order so the
			// children and their member lists come out deterministic.
			type group struct {
				rep   int32
				child int32
			}
			var groups []group
			index := make(map[uint64][]int, 2)
			assign := make([]int, len(members))
			for i, m := range members {
				h := hashSig(sigs[m])
				gi := -1
				for _, j := range index[h] {
					if slices.Equal(sigs[m], sigs[groups[j].rep]) {
						gi = j
						break
					}
				}
				if gi < 0 {
					gi = len(groups)
					groups = append(groups, group{rep: m})
					index[h] = append(index[h], gi)
				}
				assign[i] = gi
			}
			if len(groups) < 2 {
				continue // the whole block changed its signature uniformly
			}
			for j := range groups {
				groups[j].child = t.newNode(B, round)
			}
			t.head[B], t.tail[B] = -1, -1
			for i, m := range members {
				t.appendMember(groups[assign[i]].child, m)
			}
			moved = append(moved, members...)
		}
		if len(moved) == 0 {
			// Signatures changed but every block changed uniformly: the
			// partition is stable (signatures are a function of it).
			t.rounds = int(round)
			break
		}
		// Splitter queue: the next round reprocesses the members of the
		// fresh blocks and every predecessor of one.
		for _, m := range moved {
			dirty[m] = true
			for pi := predOff[m]; pi < predOff[m+1]; pi++ {
				dirty[predSrc[pi]] = true
			}
		}
	}

	// Canonical partition: dense renumbering by first occurrence in state
	// order, matching signature interning order exactly.
	blockOf := make([]int32, n)
	renum := make(map[int32]int32, 2*len(cands)+1)
	var num int32
	for s := 0; s < n; s++ {
		leaf := t.leafOf[s]
		id, ok := renum[leaf]
		if !ok {
			id = num
			num++
			renum[leaf] = id
		}
		blockOf[s] = id
	}
	return &Partition{BlockOf: blockOf, Num: int(num), Rounds: t.rounds}, t, nil
}
