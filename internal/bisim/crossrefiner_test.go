package bisim

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/algorithms"
	"repro/internal/lts"
	"repro/internal/machine"
)

// branchingOnDAG is naive signature refinement on a τ-acyclic LTS (the
// τ-SCC collapse), the byte-identity oracle for splitterOnDAG: every
// round recomputes every state's branching signature (see splitterOnDAG
// for its definition) and numbers the (block, signature) keys by first
// occurrence in state order in a fresh map. States are processed in
// increasing ID order, so inert-τ signature inheritance finds its
// successors already computed. It shares no interning code with the
// refiners it checks.
func branchingOnDAG(ctx context.Context, l *lts.LTS, divergent []bool) (*Partition, error) {
	n := l.NumStates()
	p := uniform(n)
	sigs := make([][]uint64, n)
	var key []byte
	for rounds := 1; ; rounds++ {
		if err := checkCtx(ctx, "branching refinement"); err != nil {
			return nil, err
		}
		table := make(map[string]int32)
		next := make([]int32, n)
		for s := 0; s < n; s++ {
			sig := sigs[s][:0]
			sb := p.BlockOf[s]
			for _, tr := range l.Succ(int32(s)) {
				tb := p.BlockOf[tr.Dst]
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
			slices.Sort(sig)
			sig = slices.Compact(sig)
			sigs[s] = sig
			key = binary.LittleEndian.AppendUint32(key[:0], uint32(sb))
			for _, w := range sig {
				key = binary.LittleEndian.AppendUint64(key, w)
			}
			id, ok := table[string(key)]
			if !ok {
				id = int32(len(table))
				table[string(key)] = id
			}
			next[s] = id
		}
		if len(table) == p.Num {
			p.Rounds = rounds
			return p, nil
		}
		p = &Partition{BlockOf: next, Num: len(table)}
	}
}

// uniform returns the single-block partition over n states.
func uniform(n int) *Partition {
	return &Partition{BlockOf: make([]int32, n), Num: 1}
}

// naiveRefine is naive signature refinement, the byte-identity oracle
// for strong and weak refinement: every round recomputes every state's
// signature with sig, which appends the state's (action, block) pairs
// under the current partition, and numbers the (block, signature) keys
// by first occurrence in state order in a fresh map.
func naiveRefine(n int, sig func(s int, blockOf []int32, dst []uint64) []uint64) *Partition {
	p := uniform(n)
	var (
		ws  []uint64
		key []byte
	)
	for rounds := 1; ; rounds++ {
		table := make(map[string]int32)
		next := make([]int32, n)
		for s := 0; s < n; s++ {
			ws = sig(s, p.BlockOf, ws[:0])
			slices.Sort(ws)
			ws = slices.Compact(ws)
			key = binary.LittleEndian.AppendUint32(key[:0], uint32(p.BlockOf[s]))
			for _, w := range ws {
				key = binary.LittleEndian.AppendUint64(key, w)
			}
			id, ok := table[string(key)]
			if !ok {
				id = int32(len(table))
				table[string(key)] = id
			}
			next[s] = id
		}
		if len(table) == p.Num {
			p.Rounds = rounds
			return p
		}
		p = &Partition{BlockOf: next, Num: len(table)}
	}
}

// oraclePair packs an (action, block) signature pair for the oracles.
func oraclePair(a lts.ActionID, block int32) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(block))
}

// strongOracle is naive strong refinement of l: the signature of s is
// {(a, P(t)) | s --a--> t}, τ included.
func strongOracle(l *lts.LTS) *Partition {
	return naiveRefine(l.NumStates(), func(s int, blockOf []int32, dst []uint64) []uint64 {
		for _, tr := range l.Succ(int32(s)) {
			dst = append(dst, oraclePair(tr.Action, blockOf[tr.Dst]))
		}
		return dst
	})
}

// oracleDelta is the weak oracle's divergence action, outside every
// alphabet.
const oracleDelta lts.ActionID = -1

// weakOracle is naive weak refinement of l itself, with explicit
// divergence when div: the signature of s is
//
//	{(τ, P(t)) | s ⇒ t} ∪ {(a, P(t)) | s ⇒ u --a--> v ⇒ t, a visible}
//	∪ {(δ, P(t)) | s ⇒ u ⇒ t, u on a τ-cycle}   (when div)
//
// The weak steps are found once, by a breadth-first τ-closure of every
// state, and each round maps their targets to blocks.
func weakOracle(l *lts.LTS, div bool) *Partition {
	n := l.NumStates()
	closure := make([][]int32, n)
	seen := make([]int, n)
	for s := range seen {
		seen[s] = -1
	}
	for s := 0; s < n; s++ {
		cl := []int32{int32(s)}
		seen[s] = s
		for i := 0; i < len(cl); i++ {
			for _, tr := range l.Succ(cl[i]) {
				if lts.IsTau(tr.Action) && seen[tr.Dst] != s {
					seen[tr.Dst] = s
					cl = append(cl, tr.Dst)
				}
			}
		}
		slices.Sort(cl)
		closure[s] = cl
	}
	// u is on a τ-cycle iff a τ-successor of u reaches u again.
	onCycle := make([]bool, n)
	for u := 0; u < n; u++ {
		for _, tr := range l.Succ(int32(u)) {
			if _, ok := slices.BinarySearch(closure[tr.Dst], int32(u)); ok && lts.IsTau(tr.Action) {
				onCycle[u] = true
			}
		}
	}
	// steps[s] holds (a, t) for every weak step s =a=> t, grouped by a.
	steps := make([][]uint64, n)
	var (
		edges []uint64 // (a, v) for every s ⇒ u --a--> v, a visible
		hit   = make([]int, n)
		epoch int
	)
	for s := 0; s < n; s++ {
		var st []uint64
		add := func(a lts.ActionID, ts []int32) {
			for _, t := range ts {
				if hit[t] != epoch {
					hit[t] = epoch
					st = append(st, oraclePair(a, t))
				}
			}
		}
		epoch++
		add(lts.Tau, closure[s])
		epoch++
		edges = edges[:0]
		for _, u := range closure[s] {
			if div && onCycle[u] {
				add(oracleDelta, closure[u])
			}
			for _, tr := range l.Succ(u) {
				if !lts.IsTau(tr.Action) {
					edges = append(edges, oraclePair(tr.Action, tr.Dst))
				}
			}
		}
		slices.Sort(edges)
		act := lts.Tau
		for _, e := range slices.Compact(edges) {
			if a := lts.ActionID(e >> 32); a != act {
				act = a
				epoch++
			}
			add(act, closure[int32(uint32(e))])
		}
		steps[s] = st
	}
	// mark[b] == stamp when block b is already paired with the current
	// action of the current state.
	mark, stamp := make([]int, n), 0
	return naiveRefine(n, func(s int, blockOf []int32, dst []uint64) []uint64 {
		act := ^uint64(0) // no action: w>>32 < 1<<32
		for _, w := range steps[s] {
			if w>>32 != act {
				act = w >> 32
				stamp++
			}
			if b := blockOf[int32(uint32(w))]; mark[b] != stamp {
				mark[b] = stamp
				dst = append(dst, act<<32|uint64(uint32(b)))
			}
		}
		return dst
	})
}

// kindOracle computes the strong, weak or div-weak partition of l with
// the naive oracles.
func kindOracle(l *lts.LTS, k Kind) *Partition {
	if k == KindStrong {
		return strongOracle(l)
	}
	return weakOracle(l, k == KindDivWeak)
}

// samePartition reports whether the two partitions are byte-identical —
// same block IDs (not merely the same equivalence), same block count,
// same number of refinement rounds. The splitter canonicalizes block IDs
// by first state occurrence, exactly like signature interning, so the
// stronger identity must hold.
func samePartition(a, b *Partition) bool {
	if a.Num != b.Num || a.Rounds != b.Rounds || len(a.BlockOf) != len(b.BlockOf) {
		return false
	}
	for i := range a.BlockOf {
		if a.BlockOf[i] != b.BlockOf[i] {
			return false
		}
	}
	return true
}

// refinerPair computes the branching (≈div when div) partition of l with
// the signature oracle and with the splitter.
func refinerPair(t *testing.T, l *lts.LTS, div bool) (oracle, splitter *Partition) {
	t.Helper()
	c := collapse(l, div)
	cp, err := branchingOnDAG(context.Background(), c.l, c.divergent)
	if err != nil {
		t.Fatal(err)
	}
	kind := KindBranching
	if div {
		kind = KindDivBranching
	}
	return c.lift(cp), mustPartition(t, l, kind)
}

// TestCrossRefinerTableIIPartitions compares the splitter with the
// signature oracle on every Table II implementation and specification at
// 2 threads x 2 ops, for branching and ≈div bisimulation: the partitions
// must be byte-identical.
func TestCrossRefinerTableIIPartitions(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	cfg := algorithms.Config{Threads: 2, Ops: 2}
	for _, a := range algorithms.TableII() {
		for _, p := range []*machine.Program{a.Build(cfg), a.Spec(cfg)} {
			l, _, err := machine.ExploreWithInfoContext(context.Background(), p, machine.Options{Threads: 2, Ops: 2, Workers: 1})
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			for _, div := range []bool{false, true} {
				sig, spl := refinerPair(t, l, div)
				if !samePartition(sig, spl) {
					t.Errorf("%s (%s, div=%v): signature %d blocks/%d rounds, splitter %d blocks/%d rounds",
						a.ID, p.Name, div, sig.Num, sig.Rounds, spl.Num, spl.Rounds)
				}
			}
		}
	}
}

// TestCrossRefinerTableVIIPartitions compares strong and weak refinement
// with the signature oracles on the eight Table VII rows at their quick
// sizes: strong, weak and divergence-sensitive weak bisimulation of the
// implementation ⊎ specification, and weak bisimulation of the union of
// their branching quotients (how Table VII decides ~w). The partitions
// must be byte-identical.
func TestCrossRefinerTableVIIPartitions(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	rows := []struct {
		id             string
		threads, ops   int
		singleValQueue bool
	}{
		{"ms-queue", 2, 3, true},
		{"dglm-queue", 2, 3, true},
		{"hw-queue", 2, 2, true},
		{"hm-list", 2, 2, false},
		{"lazy-list", 2, 2, false},
		{"ccas", 3, 1, false},
		{"treiber", 2, 2, false},
		{"hsy-stack", 2, 2, false},
	}
	ctx := context.Background()
	for _, r := range rows {
		a, err := algorithms.ByID(r.id)
		if err != nil {
			t.Fatal(err)
		}
		cfg := algorithms.Config{Threads: r.threads, Ops: r.ops}
		if r.singleValQueue {
			cfg.Vals = []int32{1}
		}
		acts := lts.NewAlphabet()
		var sys [2]*lts.LTS
		for i, p := range []*machine.Program{a.Build(cfg), a.Spec(cfg)} {
			sys[i], _, err = machine.ExploreWithInfoContext(ctx, p, machine.Options{Threads: r.threads, Ops: r.ops, Acts: acts, Workers: 1})
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
		}
		u, _, err := lts.DisjointUnion(sys[0], sys[1])
		if err != nil {
			t.Fatal(err)
		}
		var quo [2]*lts.LTS
		for i, l := range sys {
			if quo[i], _, err = ReduceBranchingContext(ctx, l); err != nil {
				t.Fatal(err)
			}
		}
		qu, _, err := lts.DisjointUnion(quo[0], quo[1])
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			name string
			l    *lts.LTS
			k    Kind
		}{
			{"impl⊎spec", u, KindStrong},
			{"impl⊎spec", u, KindWeak},
			{"impl⊎spec", u, KindDivWeak},
			{"quotient union", qu, KindWeak},
		}
		for _, c := range cases {
			sig, spl := kindOracle(c.l, c.k), mustPartition(t, c.l, c.k)
			if !samePartition(sig, spl) {
				t.Errorf("%s %d×%d %s (%v, %d states): signature %d blocks/%d rounds, splitter %d blocks/%d rounds",
					r.id, r.threads, r.ops, c.name, c.k, c.l.NumStates(), sig.Num, sig.Rounds, spl.Num, spl.Rounds)
			}
		}
	}
}

// wideActs is an alphabet of 65,538 visible actions besides τ, so
// generated systems can use action IDs that differ by 1<<16.
var wideActs = sync.OnceValue(func() *lts.Alphabet {
	acts := lts.NewAlphabet()
	for i := 1; i <= 1<<16+2; i++ {
		acts.ID(fmt.Sprintf("a%d", i))
	}
	return acts
})

// crossLTS builds a deterministic random system for the cross-refiner
// tests. Beyond quickLTS's random τ and visible edges it adds duplicate
// (action, dst) edges, τ self-loops (divergent states), actions whose IDs
// lie above 65,536 and differ from small ones by exactly 1<<16, and, for
// every eighth seed, a long chain of visible steps that takes more than
// 100 refinement rounds to separate.
func crossLTS(seed int64) *lts.LTS {
	r := rand.New(rand.NewSource(seed))
	acts := wideActs()
	id := func(name string) lts.ActionID { a, _ := acts.Lookup(name); return a }
	a1, a2 := id("a1"), id("a2")
	w1, w2 := id("a65537"), id("a65538") // a1 + 1<<16, a2 + 1<<16
	pool := []lts.ActionID{lts.Tau, lts.Tau, a1, a2, w1, w2}
	n := 2 + r.Intn(10)
	chain := 0
	if seed%8 == 0 {
		chain = 120 + r.Intn(20)
	}
	b := lts.NewBuilder(acts)
	b.SetInit(0)
	b.AddStates(n + chain)
	for i := 0; i < 1+r.Intn(3*n); i++ {
		src, act, dst := r.Intn(n), pool[r.Intn(len(pool))], r.Intn(n)
		b.AddID(src, act, dst)
		if r.Intn(4) == 0 {
			b.AddID(src, act, dst)
		}
	}
	for i := r.Intn(3); i > 0; i-- {
		s := r.Intn(n)
		b.AddID(s, lts.Tau, s)
	}
	if chain > 0 {
		b.AddID(r.Intn(n), w1, n)
		for i := n; i < n+chain-1; i++ {
			act := a1
			if r.Intn(16) == 0 {
				act = lts.Tau
			}
			b.AddID(i, act, i+1)
		}
	}
	return b.Build()
}

// TestCrossRefinerPartitionsIdentical: on random systems with τ-cycles,
// divergent states, duplicate edges, wide action IDs and long chains, the
// splitter and the signature oracles produce byte-identical partitions
// for all five kinds: branching and divergence-sensitive branching
// bisimulation, and strong, weak and divergence-sensitive weak
// bisimulation.
func TestCrossRefinerPartitionsIdentical(t *testing.T) {
	maxRounds, divergent := 0, 0
	for seed := int64(0); seed < 400; seed++ {
		l := crossLTS(seed)
		if _, cyc := lts.HasTauCycle(l); cyc {
			divergent++
		}
		for _, div := range []bool{false, true} {
			sig, spl := refinerPair(t, l, div)
			if !samePartition(sig, spl) {
				t.Fatalf("seed %d div=%v: signature %d blocks/%d rounds, splitter %d blocks/%d rounds",
					seed, div, sig.Num, sig.Rounds, spl.Num, spl.Rounds)
			}
			maxRounds = max(maxRounds, spl.Rounds)
		}
		for _, k := range []Kind{KindStrong, KindWeak, KindDivWeak} {
			sig, spl := kindOracle(l, k), mustPartition(t, l, k)
			if !samePartition(sig, spl) {
				t.Fatalf("seed %d %v: signature %d blocks/%d rounds, splitter %d blocks/%d rounds",
					seed, k, sig.Num, sig.Rounds, spl.Num, spl.Rounds)
			}
		}
	}
	if maxRounds <= 100 || divergent < 40 {
		t.Fatalf("generator too tame: at most %d rounds, %d divergent systems", maxRounds, divergent)
	}
}

// TestCrossRefinerTauAcyclic repeats the cross-validation on systems
// whose τ graph is a DAG (every edge goes forward), so the τ-SCC
// collapse is the identity and both refiners run on the raw system.
func TestCrossRefinerTauAcyclic(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		acts := lts.NewAlphabet()
		names := []string{lts.TauName, lts.TauName, "a", "b"}
		n := 2 + r.Intn(12)
		b := lts.NewBuilder(acts)
		b.SetInit(0)
		b.AddStates(n)
		for i := 0; i < 1+r.Intn(3*n); i++ {
			src := r.Intn(n - 1)
			b.Add(src, names[r.Intn(len(names))], src+1+r.Intn(n-1-src))
		}
		l := b.Build()
		if _, cyc := lts.HasTauCycle(l); cyc {
			t.Fatalf("seed %d: forward-edge construction produced a τ-cycle", seed)
		}
		for _, div := range []bool{false, true} {
			sig, spl := refinerPair(t, l, div)
			if !samePartition(sig, spl) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCrossRefinerWitnessDistinguishes: whenever two random systems are
// inequivalent, the splitter-derived experiment replays on the original
// systems and genuinely distinguishes the initial states.
func TestCrossRefinerWitnessDistinguishes(t *testing.T) {
	found := 0
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		acts := lts.NewAlphabet()
		names := []string{lts.TauName, "a", "b"}
		build := func() *lts.LTS {
			n := 2 + r.Intn(8)
			bl := lts.NewBuilder(acts)
			bl.SetInit(0)
			bl.AddStates(n)
			for i := 0; i < 1+r.Intn(2*n); i++ {
				bl.Add(r.Intn(n), names[r.Intn(len(names))], r.Intn(n))
			}
			return bl.Build()
		}
		a, b := build(), build()
		for _, k := range []Kind{KindBranching, KindDivBranching} {
			exp, bad, err := ExplainContext(context.Background(), a, b, k)
			if err != nil {
				t.Fatal(err)
			}
			if !bad {
				continue
			}
			found++
			if err := exp.Verify(a, b); err != nil {
				t.Fatalf("seed %d kind %v: experiment does not replay: %v\n%s", seed, k, err, exp.Format())
			}
			if len(exp.Experiment) == 0 || len(exp.Experiment) > exp.Round {
				t.Fatalf("seed %d kind %v: %d steps for round %d", seed, k, len(exp.Experiment), exp.Round)
			}
		}
	}
	if found < 20 {
		t.Fatalf("only %d inequivalent pairs among the random seeds; test is vacuous", found)
	}
}

// TestCrossRefinerSigTableResetBounded: after a round that interns a
// huge number of large signatures, none of which survive, compaction must
// not keep that round's storage alive for the rest of the run.
func TestCrossRefinerSigTableResetBounded(t *testing.T) {
	const states = 64
	st, ids := newSigStore(states), make([]int32, states)
	sig := make([]uint64, 512) // 4 KiB keys
	for i := range sig {
		sig[i] = uint64(i) << 17
	}
	for i := 0; i < 4*sigCompactSlack; i++ {
		sig[0] = uint64(i)
		st.assign(ids, i%states, st.intern(sig))
	}
	peak := st.tab.Bytes()
	// A small round follows: every state moves to one of two short
	// signatures, so the huge round's keys are all dead.
	for s := range ids {
		st.assign(ids, s, st.intern(sig[:1+s%2]))
	}
	if !st.overfull() {
		t.Fatalf("%d entries for %d live IDs not flagged for compaction", st.tab.Len(), st.live)
	}
	st.compact(ids)
	if st.tab.Len() != 2 || st.live != 2 {
		t.Fatalf("compaction kept %d entries for %d live IDs, want 2", st.tab.Len(), st.live)
	}
	if got := st.tab.Bytes(); got > 1024 || got*100 > peak {
		t.Fatalf("compacted table holds %d bytes (peak %d)", got, peak)
	}
	for s, id := range ids {
		if got := st.appendWords(nil, id); !slices.Equal(got, sig[:1+s%2]) {
			t.Fatalf("state %d: signature %v after compaction, want %v", s, got, sig[:1+s%2])
		}
	}
}

// TestSplitterSigTableBounded runs the splitter for more than 100 rounds
// on a system where hundreds of states change their signature in every
// round while few signatures stay live, and holds the signature table to
// at most twice the live IDs plus sigCompactSlack after every round.
func TestSplitterSigTableBounded(t *testing.T) {
	// A chain of length visible steps takes a round per state to
	// separate, and each of the hubs sees the whole chain through its
	// own action, so every round's chain split gives every hub a fresh
	// signature and kills its old one.
	const length, hubs = 150, 300
	acts := lts.NewAlphabet()
	a := acts.ID("a")
	bl := lts.NewBuilder(acts)
	bl.SetInit(0)
	bl.AddStates(length + hubs)
	for i := 1; i < length; i++ {
		bl.AddID(i, a, i-1)
	}
	for h := 0; h < hubs; h++ {
		act := acts.ID(fmt.Sprintf("h%d", h))
		for i := 0; i < length; i++ {
			bl.AddID(length+h, act, i)
		}
	}
	l := bl.Build()
	rounds, compactions, worst, last := 0, 0, 0, 0
	splitterRoundHook = func(st *sigStore) {
		rounds++
		if st.tab.Len() < last {
			compactions++
		}
		last = st.tab.Len()
		worst = max(worst, st.tab.Len()-2*st.live)
	}
	defer func() { splitterRoundHook = nil }()
	p, _, err := splitterOnDAG(context.Background(), l, make([]bool, l.NumStates()))
	if err != nil {
		t.Fatal(err)
	}
	if p.Rounds <= 100 || compactions < 10 {
		t.Fatalf("%d rounds, %d compactions: the run does not exercise compaction", p.Rounds, compactions)
	}
	if worst > sigCompactSlack {
		t.Fatalf("signature table exceeded twice the live IDs by %d entries (slack %d)", worst, sigCompactSlack)
	}
}

// maxSplitterBytesPerState bounds TestSplitterBytesPerState. The
// splitter allocates about 40 B/state on its system; the slice-per-state
// splitter the ID column replaced allocated 166 B/state.
const maxSplitterBytesPerState = 56

// typedDAG returns a 120,000-state τ-DAG whose quotient is tiny. State s
// has type s mod 24, and its type fixes its behaviour, as in the state
// space of a concurrent object. Its visible step, labelled by the type's
// letter, goes to a state of the next type, so types separate by their
// future words over up to 24 rounds; half the states also take an inert
// τ step to a lower state of their type, as the τ-SCC collapse numbers
// them. The first row of states are unreachable sinks.
func typedDAG() *lts.LTS {
	const n, types = 120_000, 24
	r := rand.New(rand.NewSource(1))
	acts := lts.NewAlphabet()
	vis := []lts.ActionID{acts.ID("a"), acts.ID("b"), acts.ID("c")}
	word := make([]lts.ActionID, types)
	for c := range word {
		word[c] = vis[r.Intn(len(vis))]
	}
	bl := lts.NewBuilder(acts)
	bl.SetInit(n - 1)
	bl.AddStates(n)
	rows := n / types
	for s := types; s < n; s++ {
		c, row := s%types, s/types
		bl.AddID(s, word[c], (c+1)%types+types*(1+r.Intn(rows-1)))
		if row > 1 && r.Intn(2) == 0 {
			bl.AddID(s, lts.Tau, c+types*(1+r.Intn(row-1)))
		}
	}
	return bl.Build()
}

// TestSplitterBytesPerState bounds the bytes splitterOnDAG allocates per
// state on typedDAG: signatures live once each in the intern table and
// states hold an int32 ID, so the refinement's allocation is a few int32
// columns per state and transition. A slice-per-state signature column
// (a 24-byte header plus its words for every state) breaks the bound.
func TestSplitterBytesPerState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 120,000-state system")
	}
	l := typedDAG()
	n := l.NumStates()
	divergent := make([]bool, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, _, err := splitterOnDAG(context.Background(), l, divergent)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perState := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("%d states, %d transitions, %d blocks, %d rounds: %.1f B/state", n, l.NumTransitions(), p.Num, p.Rounds, perState)
	if perState > maxSplitterBytesPerState {
		t.Fatalf("splitter allocated %.1f B/state, bound %d", perState, maxSplitterBytesPerState)
	}
}

// maxSplitterSignsPerState bounds TestSplitterSignsOnlyInvalidated. On
// typedDAG the splitter computes 4.04 signatures per state; one that
// re-signs every child of a split block and every predecessor of one,
// as if all children were fresh blocks, computes 5.83.
const maxSplitterSignsPerState = 4.5

// TestSplitterSignsOnlyInvalidated bounds the signatures splitterOnDAG
// computes over a run on typedDAG: a split keeps the block's label on
// its largest child, so only the other children's members and their
// predecessors are re-signed.
func TestSplitterSignsOnlyInvalidated(t *testing.T) {
	if testing.Short() {
		t.Skip("refines a 120,000-state system")
	}
	l := typedDAG()
	_, tree, err := splitterOnDAG(context.Background(), l, make([]bool, l.NumStates()))
	if err != nil {
		t.Fatal(err)
	}
	perState := float64(tree.signed) / float64(l.NumStates())
	t.Logf("%d signatures: %.2f per state", tree.signed, perState)
	if perState > maxSplitterSignsPerState {
		t.Fatalf("splitter computed %.2f signatures per state, bound %.1f", perState, maxSplitterSignsPerState)
	}
}

// BenchmarkSplitterRefine exercises the splitter refiner on a mid-sized
// random system; CI runs it once as a smoke test.
func BenchmarkSplitterRefine(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	acts := lts.NewAlphabet()
	names := []string{lts.TauName, lts.TauName, "a", "b", "c", "d"}
	n := 20000
	bl := lts.NewBuilder(acts)
	bl.SetInit(0)
	bl.AddStates(n)
	for i := 0; i < 3*n; i++ {
		bl.Add(r.Intn(n), names[r.Intn(len(names))], r.Intn(n))
	}
	l := bl.Build()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BranchingContext(ctx, l); err != nil {
			b.Fatal(err)
		}
	}
}
