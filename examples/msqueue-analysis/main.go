// MS queue analysis: the Section III / Fig. 6 story, end to end.
//
// The Michael–Scott queue's dequeue has a non-fixed linearization point:
// the read of head.next at line 20 linearizes an EMPTY dequeue only if
// the later validation at line 21 still sees the same Head. The paper
// shows that ordinary (linear-time) trace equivalence cannot see the
// effect of the racing head-swing CAS at line 28, while the k-trace
// hierarchy — and hence branching bisimilarity — can.
//
// This example (1) explores the queue, (2) reduces it to its branching-
// bisimulation quotient and lists which internal steps survive (exactly
// the effectful lines 8, 20, 21, 28 of the paper's Fig. 5), and
// (3) classifies the surviving τ steps in the ≡ₖ hierarchy, locating a
// step whose endpoints are 1-trace equivalent but 2-trace inequivalent —
// the L28 CAS of Fig. 6.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	bbv "repro"
	"repro/internal/bisim"
	"repro/internal/ktrace"
	"repro/internal/lts"
	"repro/internal/machine"
)

func main() {
	ctx := context.Background()
	alg, err := bbv.AlgorithmByID("ms-queue")
	if err != nil {
		log.Fatal(err)
	}
	// 2 threads x 4 ops over a single value: large enough to show the
	// quotient structure quickly. (The paper's Fig. 6 instance, 5 ops,
	// exhibits the trace-invisible step; run with -ops 5 via
	// cmd/paper-tables fig6 for that.)
	const threads, ops = 2, 4
	cfg := bbv.Instance{Threads: threads, Ops: ops, Vals: []int32{1}}

	l, _, err := machine.ExploreWithInfoContext(ctx, alg.Build(cfg.Algorithm()), machine.Options{Threads: threads, Ops: ops})
	if err != nil {
		log.Fatal(err)
	}
	q, _, err := bisim.ReduceBranchingContext(ctx, l)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MS queue, %d threads x %d ops: %d states, quotient %d (%.0fx smaller)\n",
		threads, ops, l.NumStates(), q.NumStates(), float64(l.NumStates())/float64(q.NumStates()))

	// Which internal steps survive quotienting? Inert steps disappear;
	// what remains are the statements that take effect.
	hist := map[string]int{}
	for s := int32(0); s < int32(q.NumStates()); s++ {
		for _, tr := range q.Succ(s) {
			if lts.IsTau(tr.Action) {
				name := q.LabelName(tr.Label)
				hist[name[len("tN."):]]++ // strip the thread prefix
			}
		}
	}
	var names []string
	for n := range hist {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("internal steps surviving in the quotient (the effectful lines of Fig. 5):")
	for _, n := range names {
		fmt.Printf("  %-4s %d transitions\n", n, hist[n])
	}

	// Classify the surviving steps in the k-trace hierarchy.
	an := ktrace.Analyze(q, 5)
	cls := ktrace.Classify(q, an)
	fmt.Printf("k-trace hierarchy: cap %d, levels:", an.Cap)
	for i, p := range an.Partitions {
		fmt.Printf(" L%d=%d", i+1, p.Num)
	}
	fmt.Println(" classes")
	if cls.Eq1Neq2 != nil {
		fmt.Printf("trace-invisible effect found: τ step %s has 1-trace-equivalent but 2-trace-inequivalent endpoints (Fig. 6)\n",
			q.LabelName(cls.Eq1Neq2.Label))
	} else {
		fmt.Printf("no (≡₁,≢₂) step at %d ops — the paper's Fig. 6 instance needs 5 ops per thread\n", ops)
	}

	// And the verification verdicts themselves.
	lin, err := bbv.CheckLinearizabilityContext(ctx, alg.Build(cfg.Algorithm()), alg.Spec(cfg.Algorithm()), cfg)
	if err != nil {
		log.Fatal(err)
	}
	lf, err := bbv.CheckLockFreeAbstractContext(ctx, alg.Build(cfg.Algorithm()), alg.Abstract(cfg.Algorithm()), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("linearizable: %v (Thm 5.3)   lock-free: %v (Thm 5.8, object ≈div abstract queue: %v)\n",
		lin.Linearizable, lf.LockFree, lf.Bisimilar)
}
