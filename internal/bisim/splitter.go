package bisim

import (
	"cmp"
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
// Signatures do not name blocks by node but by label. Every leaf has one
// label, and when a block splits its largest child keeps the block's
// label while the others take fresh ones, so a signature that only
// reaches the largest child stays valid without being recomputed. Each
// label keeps a doubly linked member list in increasing state order, so
// splits renumber deterministically and a child leaves its parent's list
// in time proportional to its own size.
//
// The pool holds at most 2n−1 nodes (n leaves, each split creates ≥ 2
// fresh children, so ≤ n−1 inner nodes) and grows as splits happen;
// labels number the leaves, so there are at most n of them.
type splitTree struct {
	l         *lts.LTS
	divergent []bool
	rounds    int
	signed    int // signatures computed over the run

	parent []int32 // node → parent node, -1 at the root
	round  []int32 // node → creation round (0 for the root)

	nodeOf []int32 // label → its current leaf node
	head   []int32 // label → first member state, -1 when empty
	size   []int32 // label → member count

	label      []int32 // state → label of its current leaf
	next, prev []int32 // state → neighbour in its label's member list, -1 at the ends
}

func newSplitTree(l *lts.LTS, divergent []bool) *splitTree {
	n := l.NumStates()
	t := &splitTree{
		l:         l,
		divergent: divergent,
		parent:    []int32{-1},
		round:     []int32{0},
		label:     make([]int32, n),
		next:      make([]int32, n),
		prev:      make([]int32, n),
	}
	t.newLabel(0)
	for s := range n {
		t.next[s], t.prev[s] = int32(s+1), int32(s-1)
	}
	if n > 0 {
		t.head[0], t.size[0] = 0, int32(n)
		t.next[n-1] = -1
	}
	return t
}

// newNode allocates a child block created in the given round.
func (t *splitTree) newNode(parent, round int32) int32 {
	id := int32(len(t.parent))
	t.parent = append(t.parent, parent)
	t.round = append(t.round, round)
	return id
}

// newLabel allocates an empty label naming leaf node.
func (t *splitTree) newLabel(node int32) int32 {
	id := int32(len(t.nodeOf))
	t.nodeOf = append(t.nodeOf, node)
	t.head = append(t.head, -1)
	t.size = append(t.size, 0)
	return id
}

// leaf returns the current leaf node of state s.
func (t *splitTree) leaf(s int32) int32 { return t.nodeOf[t.label[s]] }

// nodeAt returns the block of state s in the historical partition after
// round r; r = 0 is the initial single-block partition.
func (t *splitTree) nodeAt(s, r int32) int32 {
	n := t.leaf(s)
	for t.round[n] > r {
		n = t.parent[n]
	}
	return n
}

// sepRound returns the first refinement round whose partition separates u
// and v, or 0 when they ended in the same block (bisimilar).
func (t *splitTree) sepRound(u, v int32) int32 {
	if t.label[u] == t.label[v] {
		return 0
	}
	// Walk v's leaf-to-root chain until it meets an ancestor of u: that
	// meeting point is the lowest common ancestor, and since a node splits
	// atomically in a single round, both chains leave it in the round the
	// LCA's children were created — the first separating round.
	anc := make(map[int32]bool, 8)
	for n := t.leaf(u); n >= 0; n = t.parent[n] {
		anc[n] = true
	}
	child := t.leaf(v)
	for n := t.parent[child]; n >= 0; n = t.parent[n] {
		if anc[n] {
			break
		}
		child = n
	}
	return t.round[child]
}

// move unlinks state s from its label's member list and appends it to
// group g's list, which is being built in increasing state order.
func (t *splitTree) move(s int32, g *splitGroup) {
	from := t.label[s]
	if p := t.prev[s]; p >= 0 {
		t.next[p] = t.next[s]
	} else {
		t.head[from] = t.next[s]
	}
	if nx := t.next[s]; nx >= 0 {
		t.prev[nx] = t.prev[s]
	}
	t.label[s], t.next[s], t.prev[s] = g.label, -1, g.tail
	if g.tail >= 0 {
		t.next[g.tail] = s
	} else {
		t.head[g.label] = s
	}
	g.tail = s
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
// Within a round, only dirty states are reprocessed: members of the
// relabelled children of blocks split in the previous round and their
// predecessors (the splitter queue; see split), plus same-block
// τ-predecessors of states whose signature changed this round (inert
// inheritance cascades up the DAG, which increasing-ID processing order
// makes single-pass).
//
// Invariant: the stored signature ID of every clean state is exact — it
// is the state's signature under the current labels. A split keeps it so
// by relabelling only what the signature of a clean state cannot name,
// and the sweep restores it for every dirty state it visits. Hence
// every block's members hold one ID at the start of a sweep, a block
// splits exactly when some member's ID changes, and grouping by ID is
// grouping by signature.
func splitterOnDAG(ctx context.Context, l *lts.LTS, divergent []bool) (*Partition, *splitTree, error) {
	n := l.NumStates()
	t := newSplitTree(l, divergent)

	// Reverse-edge CSR: the predecessors of s are predSrc[predOff[s]:
	// predOff[s+1]], a τ predecessor p stored complemented as ^p and
	// ahead of every visible one, so the inert cascade stops at the first
	// p ≥ 0.
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
	for _, tau := range []bool{true, false} {
		for s := 0; s < n; s++ {
			for _, tr := range l.Succ(int32(s)) {
				if lts.IsTau(tr.Action) != tau {
					continue
				}
				p := int32(s)
				if tau {
					p = ^p
				}
				predSrc[fill[tr.Dst]] = p
				fill[tr.Dst]++
			}
		}
	}

	sigs := newSigStore(n)
	sp := &splitter{
		t:       t,
		sigID:   make([]int32, n),
		dirty:   make([]bool, n),
		predOff: predOff,
		predSrc: predSrc,
		chNext:  fill, // spent: the CSR is built
	}
	sigID, dirty, label, chNext := sp.sigID, sp.dirty, t.label, sp.chNext
	for s := range dirty {
		dirty[s] = true
	}
	var (
		sig    []uint64
		cands  []int32 // labels whose members changed signature this round
		signed int
	)
	for round := int32(1); ; round++ {
		if err := checkCtx(ctx, "splitter refinement"); err != nil {
			return nil, nil, err
		}
		cands = cands[:0]
		for len(sp.chHead) < len(t.nodeOf) {
			sp.chHead = append(sp.chHead, -1)
			sp.chTail = append(sp.chTail, -1)
		}
		chHead, chTail := sp.chHead, sp.chTail
		for s := 0; s < n; s++ {
			if !dirty[s] {
				continue
			}
			dirty[s] = false
			sb := label[s]
			sig = sig[:0]
			// While only is set, every step so far is inert τ into states
			// of signature inherit, and s's signature is that one's.
			inherit, only := int32(-1), !divergent[s]
			for _, tr := range l.Succ(int32(s)) {
				tb := label[tr.Dst]
				if lts.IsTau(tr.Action) && tb == sb {
					// Inert: inherit the τ-successor's signature. The
					// collapse guarantees tr.Dst < s, so its ID is final
					// for this round.
					d := sigID[tr.Dst]
					if only && (inherit < 0 || inherit == d) {
						inherit = d
						continue
					}
					sig = sigs.appendWords(sig, d)
				} else {
					sig = append(sig, sigPair(tr.Action, tb))
				}
				only = false
			}
			signed++
			id := inherit
			if !only || inherit < 0 {
				if inherit >= 0 {
					sig = sigs.appendWords(sig, inherit)
				}
				if divergent[s] {
					sig = append(sig, sigPair(divergenceAction, sb))
				}
				id = sigs.intern(sortDedup(sig))
			}
			if id == sigID[s] {
				continue
			}
			sigs.assign(sigID, s, id)
			if chHead[sb] < 0 {
				cands = append(cands, sb)
				chHead[sb] = int32(s)
			} else {
				chNext[chTail[sb]] = int32(s)
			}
			chTail[sb], chNext[s] = int32(s), -1
			// A same-block τ-predecessor inherits this signature; it has a
			// higher state ID, so this round's sweep still reaches it.
			for _, p := range predSrc[predOff[s]:predOff[s+1]] {
				if p >= 0 {
					break
				}
				if label[^p] == sb {
					dirty[^p] = true
				}
			}
		}
		if len(cands) == 0 {
			t.rounds = int(round)
			break
		}
		// Split candidates in leaf node order, so the tree's nodes are
		// numbered as if every child were fresh.
		slices.SortFunc(cands, func(a, b int32) int { return cmp.Compare(t.nodeOf[a], t.nodeOf[b]) })
		if k := sigs.tab.Len(); len(sp.stampOf) < k {
			sp.groupOf = append(sp.groupOf, make([]int32, k-len(sp.groupOf))...)
			sp.stampOf = append(sp.stampOf, make([]int32, k-len(sp.stampOf))...)
		}
		split := false
		for _, B := range cands {
			if sp.split(B, round) {
				split = true
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
	t.signed = signed

	// Canonical partition: dense renumbering by first occurrence in state
	// order, matching signature interning order exactly. Labels and leaves
	// are in one-to-one correspondence, so renumbering labels suffices.
	blockOf := make([]int32, n)
	renum := make([]int32, len(t.nodeOf))
	for i := range renum {
		renum[i] = -1
	}
	var num int32
	for s := 0; s < n; s++ {
		L := label[s]
		if renum[L] < 0 {
			renum[L] = num
			num++
		}
		blockOf[s] = renum[L]
	}
	return &Partition{BlockOf: blockOf, Num: int(num), Rounds: t.rounds}, t, nil
}

// splitter is the state a split reads and writes beyond the tree.
type splitter struct {
	t                *splitTree
	sigID            []int32 // state → signature ID
	dirty            []bool  // state → re-sign in the next sweep
	predOff, predSrc []int32 // reverse-edge CSR (see splitterOnDAG)
	groupOf          []int32 // signature ID → group, valid where stampOf matches
	stampOf          []int32 // signature ID → stamp of the block that grouped it
	stamp            int32
	groups           []splitGroup

	// The members whose signature changed this round, per label in
	// increasing state order: a list from chHead through chNext to
	// chTail, or chHead = -1.
	chHead, chTail []int32 // label → first/last changed member
	chNext         []int32 // state → next changed member of its label, -1 last
}

// splitGroup is one child of a splitting block: its size, its label
// and, while members move in, the tail of its member list.
type splitGroup struct {
	size, label, tail int32
}

// addGroup opens an empty group for the members with signature ID id.
func (sp *splitter) addGroup(id int32) int32 {
	g := int32(len(sp.groups))
	sp.stampOf[id], sp.groupOf[id] = sp.stamp, g
	sp.groups = append(sp.groups, splitGroup{tail: -1})
	return g
}

// split splits block B by signature ID, given the list of members
// whose signature changed this round (chHead[B]), and reports whether B
// split. At the start of a sweep every block's members hold one ID (they
// were grouped by it, or none changed), so the members not on the list
// form one group and are never looked at one by one unless a changed
// group outgrows them.
//
// Children are numbered in first-occurrence order over B's members, as
// a split of every member would number them. The largest child (the
// first on a tie) keeps B's label; each other child takes a fresh label,
// and its members and their predecessors are re-signed in the next
// sweep (the splitter queue). Every other state's signature stays exact:
// a pair naming B's label now names the largest child, which is where
// its edge still goes, and an inert τ step into the largest child stays
// inert.
func (sp *splitter) split(B, round int32) bool {
	t := sp.t
	sp.stamp++
	sp.groups = sp.groups[:0]
	first := sp.chHead[B]
	sp.chHead[B] = -1
	// Walk the changed list against B's member list: until they part,
	// every member so far changed, and where they part m is the first
	// member whose signature held.
	var changed int32
	unchanged := int32(-1) // the held members' group, once met
	m := t.head[B]
	for s := first; s >= 0; s = sp.chNext[s] {
		if unchanged < 0 {
			if m == s {
				m = t.next[m]
			} else {
				unchanged = sp.addGroup(sp.sigID[m])
			}
		}
		id := sp.sigID[s]
		if sp.stampOf[id] != sp.stamp {
			sp.addGroup(id)
		}
		sp.groups[sp.groupOf[id]].size++
		changed++
	}
	if unchanged < 0 && m >= 0 {
		unchanged = sp.addGroup(sp.sigID[m])
	}
	if unchanged >= 0 {
		sp.groups[unchanged].size = t.size[B] - changed
	}
	if len(sp.groups) < 2 {
		return false // the whole block changed its signature uniformly
	}
	keep := int32(0)
	for g, gr := range sp.groups {
		if gr.size > sp.groups[keep].size {
			keep = int32(g)
		}
	}
	parent := t.nodeOf[B]
	for g := range sp.groups {
		gr := &sp.groups[g]
		node := t.newNode(parent, round)
		if int32(g) == keep {
			gr.label = B
			t.nodeOf[B], t.size[B] = node, gr.size
			continue
		}
		gr.label = t.newLabel(node)
		t.size[gr.label] = gr.size
	}
	if keep == unchanged {
		for s := first; s >= 0; s = sp.chNext[s] {
			sp.relabel(s)
		}
		return true
	}
	// A changed group is the largest, so B's whole list is at most twice
	// its size: walk it and move everyone else out.
	for s := t.head[B]; s >= 0; {
		next := t.next[s]
		if sp.groupOf[sp.sigID[s]] != keep {
			sp.relabel(s)
		}
		s = next
	}
	return true
}

// relabel moves state s to its group's child and queues it and its
// predecessors (p, or ^p for a τ edge) for re-signing.
func (sp *splitter) relabel(s int32) {
	sp.t.move(s, &sp.groups[sp.groupOf[sp.sigID[s]]])
	sp.dirty[s] = true
	for _, p := range sp.predSrc[sp.predOff[s]:sp.predOff[s+1]] {
		sp.dirty[max(p, ^p)] = true
	}
}
