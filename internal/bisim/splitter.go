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
// fresh children, so ≤ n−1 inner nodes) and grows as splits happen;
// membership is a singly linked list per leaf kept in increasing state
// order, so splits renumber deterministically.
type splitTree struct {
	l         *lts.LTS
	divergent []bool
	rounds    int

	parent []int32 // node → parent node, -1 at the root
	round  []int32 // node → creation round (0 for the root)

	head, tail []int32 // node → first/last member state, -1 when inner/empty
	next       []int32 // state → successor in its leaf's member list, -1 last
	leafOf     []int32 // state → current leaf node
}

func newSplitTree(l *lts.LTS, divergent []bool) *splitTree {
	n := l.NumStates()
	t := &splitTree{
		l:         l,
		divergent: divergent,
		parent:    []int32{-1},
		round:     []int32{0},
		head:      []int32{-1},
		tail:      []int32{-1},
		next:      make([]int32, n),
		leafOf:    make([]int32, n),
	}
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

// sigStore is the splitter's signature column: every distinct signature
// is interned once, and each state holds the int32 ID of its current
// one, so a round's change test is an ID comparison and inert-τ
// inheritance copies the successor's interned words. refs counts the
// states holding each ID. When dead IDs outnumber the live ones by more
// than sigCompactSlack, the round's end compacts the table, so after
// every splitting round it holds at most twice the live IDs plus that
// slack.
type sigStore struct {
	sigIntern
	refs []int32 // ID → number of states whose signature it is
	live int     // IDs with refs > 0
}

// splitterRoundHook, when set, observes the signature store at the end
// of every round that splits a block; tests use it to check the table's
// bound across a run.
var splitterRoundHook func(*sigStore)

// sigCompactSlack is how many entries beyond twice the live IDs the
// table may hold before a round's end compacts it, so small runs never
// pay for a rebuild.
const sigCompactSlack = 1024

// newSigStore returns a store in which all states hold the empty
// signature, ID 0.
func newSigStore(states int) *sigStore {
	st := &sigStore{}
	st.intern(nil)
	st.refs[0], st.live = int32(states), 1
	return st
}

// intern returns ws's ID; ws must be sorted and deduplicated.
func (st *sigStore) intern(ws []uint64) int32 {
	id := st.sigIntern.intern(ws)
	if int(id) == len(st.refs) {
		st.refs = append(st.refs, 0)
	}
	return id
}

// assign moves state s's signature from ids[s] to id.
func (st *sigStore) assign(ids []int32, s int, id int32) {
	old := ids[s]
	if st.refs[old]--; st.refs[old] == 0 {
		st.live--
	}
	if st.refs[id]++; st.refs[id] == 1 {
		st.live++
	}
	ids[s] = id
}

// overfull reports whether dead entries have outgrown the live ones.
func (st *sigStore) overfull() bool {
	return st.tab.Len() > 2*st.live+sigCompactSlack
}

// compact re-interns the live signatures, in ID order, into a fresh
// table and renumbers ids to match, releasing the dead entries' storage.
func (st *sigStore) compact(ids []int32) {
	remap := make([]int32, st.tab.Len())
	fresh := sigIntern{buf: st.buf}
	refs := make([]int32, 0, st.live)
	var ws []uint64
	for id, r := range st.refs {
		if r == 0 {
			continue
		}
		ws = st.appendWords(ws[:0], int32(id))
		remap[id] = fresh.intern(ws)
		refs = append(refs, r)
	}
	for s, id := range ids {
		ids[s] = remap[id]
	}
	st.sigIntern, st.refs = fresh, refs
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

	// Reverse-edge CSR: the predecessors of s are predSrc[predOff[s]:
	// predOff[s+1]], a τ predecessor p stored complemented as ^p.
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
	fill := append([]int32(nil), predOff[:n]...)
	for s := 0; s < n; s++ {
		for _, tr := range l.Succ(int32(s)) {
			p := int32(s)
			if lts.IsTau(tr.Action) {
				p = ^p
			}
			predSrc[fill[tr.Dst]] = p
			fill[tr.Dst]++
		}
	}

	sigs, sigID := newSigStore(n), make([]int32, n)
	dirty := make([]bool, n)
	for s := range dirty {
		dirty[s] = true
	}
	var (
		sig      []uint64
		cands    []int32
		candSeen []bool  // node → queued in cands this round
		groupOf  []int32 // signature ID → group, valid where stampOf matches
		stampOf  []int32 // signature ID → stamp of the block that grouped it
		children []int32 // group → child node
		stamp    int32
	)
	for round := int32(1); ; round++ {
		if err := checkCtx(ctx, "splitter refinement"); err != nil {
			return nil, nil, err
		}
		cands = cands[:0]
		if len(candSeen) < len(t.parent) {
			candSeen = append(candSeen, make([]bool, len(t.parent)-len(candSeen))...)
		}
		for s := 0; s < n; s++ {
			if !dirty[s] {
				continue
			}
			dirty[s] = false
			sb := t.leafOf[s]
			sig = sig[:0]
			for _, tr := range l.Succ(int32(s)) {
				tb := t.leafOf[tr.Dst]
				if lts.IsTau(tr.Action) && tb == sb {
					// Inert: inherit the τ-successor's signature. The
					// collapse guarantees tr.Dst < s, so its ID is final
					// for this round.
					sig = sigs.appendWords(sig, sigID[tr.Dst])
					continue
				}
				sig = append(sig, sigPair(tr.Action, tb))
			}
			if divergent[s] {
				sig = append(sig, sigPair(divergenceAction, sb))
			}
			id := sigs.intern(sortDedup(sig))
			if id == sigID[s] {
				continue
			}
			sigs.assign(sigID, s, id)
			if !candSeen[sb] {
				candSeen[sb] = true
				cands = append(cands, sb)
			}
			// A same-block τ-predecessor inherits this signature; it has a
			// higher state ID, so this round's sweep still reaches it.
			for _, p := range predSrc[predOff[s]:predOff[s+1]] {
				if p < 0 && t.leafOf[^p] == sb {
					dirty[^p] = true
				}
			}
		}
		if len(cands) == 0 {
			t.rounds = int(round)
			break
		}
		slices.Sort(cands)
		if k := sigs.tab.Len(); len(stampOf) < k {
			groupOf = append(groupOf, make([]int32, k-len(groupOf))...)
			stampOf = append(stampOf, make([]int32, k-len(stampOf))...)
		}
		split := false
		for _, B := range cands {
			candSeen[B] = false
			// Group members by signature ID, in first-occurrence order so
			// the children and their member lists come out deterministic.
			stamp++
			children = children[:0]
			for s := t.head[B]; s >= 0; s = t.next[s] {
				if id := sigID[s]; stampOf[id] != stamp {
					stampOf[id], groupOf[id] = stamp, int32(len(children))
					children = append(children, -1)
				}
			}
			if len(children) < 2 {
				continue // the whole block changed its signature uniformly
			}
			split = true
			for g := range children {
				children[g] = t.newNode(B, round)
			}
			// Move every member to its group's child. The splitter queue:
			// the next round reprocesses the members of the fresh blocks
			// and every predecessor of one (p, or ^p for a τ edge).
			s := t.head[B]
			t.head[B], t.tail[B] = -1, -1
			for s >= 0 {
				next := t.next[s]
				t.appendMember(children[groupOf[sigID[s]]], s)
				dirty[s] = true
				for _, p := range predSrc[predOff[s]:predOff[s+1]] {
					dirty[max(p, ^p)] = true
				}
				s = next
			}
		}
		if !split {
			// Signatures changed but every block changed uniformly: the
			// partition is stable (signatures are a function of it).
			t.rounds = int(round)
			break
		}
		if sigs.overfull() {
			sigs.compact(sigID)
		}
		if splitterRoundHook != nil {
			splitterRoundHook(sigs)
		}
	}

	// Canonical partition: dense renumbering by first occurrence in state
	// order, matching signature interning order exactly.
	blockOf := make([]int32, n)
	renum := make([]int32, len(t.parent))
	for i := range renum {
		renum[i] = -1
	}
	var num int32
	for s := 0; s < n; s++ {
		leaf := t.leafOf[s]
		if renum[leaf] < 0 {
			renum[leaf] = num
			num++
		}
		blockOf[s] = renum[leaf]
	}
	return &Partition{BlockOf: blockOf, Num: int(num), Rounds: t.rounds}, t, nil
}
