package bisim

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/algorithms"
	"repro/internal/lts"
	"repro/internal/machine"
)

// branchingOnDAG is naive signature refinement on a τ-acyclic LTS (the
// τ-SCC collapse), the byte-identity oracle for splitterOnDAG: every
// round recomputes every state's branching signature (see splitterOnDAG
// for its definition) and interns it in a sigTable, which numbers blocks
// by first occurrence in state order. States are processed in increasing
// ID order, so inert-τ signature inheritance finds its successors
// already computed.
func branchingOnDAG(ctx context.Context, l *lts.LTS, divergent []bool) (*Partition, error) {
	n := l.NumStates()
	p := uniform(n)
	table := newSigTable(n)
	sigs := make([][]uint64, n)
	for rounds := 1; ; rounds++ {
		if err := checkCtx(ctx, "branching refinement"); err != nil {
			return nil, err
		}
		table.reset()
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
			sig = sortDedup(sig)
			sigs[s] = sig
			next[s] = table.blockFor(sb, sig)
		}
		num := table.len()
		if num == p.Num {
			p.Rounds = rounds
			return p, nil
		}
		p = &Partition{BlockOf: next, Num: num}
	}
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

// TestCrossRefinerPartitionsIdentical: on random systems with τ-cycles,
// the splitter and the signature oracle produce byte-identical partitions
// for both branching and divergence-sensitive branching bisimulation.
func TestCrossRefinerPartitionsIdentical(t *testing.T) {
	prop := func(seed int64) bool {
		l := quickLTS(seed)
		for _, div := range []bool{false, true} {
			sig, spl := refinerPair(t, l, div)
			if !samePartition(sig, spl) {
				t.Logf("seed %d div=%v: signature %d blocks/%d rounds, splitter %d blocks/%d rounds",
					seed, div, sig.Num, sig.Rounds, spl.Num, spl.Rounds)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
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
// huge number of large signatures, reset must not keep the peak storage
// alive forever (the regression this pins: the free list and bucket map
// used to retain every key buffer from the largest round).
func TestCrossRefinerSigTableResetBounded(t *testing.T) {
	tbl := newSigTable(16)
	sig := make([]uint64, 512) // 4 KiB keys
	for i := range sig {
		sig[i] = uint64(i) << 17
	}
	big := 4 * bucketShrinkSlack
	for i := 0; i < big; i++ {
		sig[0] = uint64(i)
		tbl.blockFor(0, sig)
	}
	// A small round follows: reset sees far fewer blocks than buckets and
	// must rebuild rather than pin the peak map.
	tbl.reset()
	tbl.blockFor(0, sig[:4])
	tbl.reset()
	if got := len(tbl.buckets); got > 2+bucketShrinkSlack {
		t.Fatalf("bucket map kept %d entries after a 1-block round (slack %d)", got, bucketShrinkSlack)
	}
	if tbl.freeBytes > maxFreeKeyBytes {
		t.Fatalf("free list holds %d bytes, cap is %d", tbl.freeBytes, maxFreeKeyBytes)
	}
	// Steady state: repeated large rounds never exceed the byte cap.
	for round := 0; round < 4; round++ {
		for i := 0; i < 200; i++ {
			sig[0] = uint64(round*1000 + i)
			tbl.blockFor(0, sig)
		}
		tbl.reset()
		if tbl.freeBytes > maxFreeKeyBytes {
			t.Fatalf("round %d: free list holds %d bytes, cap is %d", round, tbl.freeBytes, maxFreeKeyBytes)
		}
		total := 0
		for _, buf := range tbl.free {
			total += cap(buf)
		}
		if total != tbl.freeBytes {
			t.Fatalf("round %d: freeBytes accounting drifted: counted %d, actual %d", round, tbl.freeBytes, total)
		}
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
