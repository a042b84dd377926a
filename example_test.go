package bbv_test

import (
	"context"
	"fmt"
	"log"

	bbv "repro"
	"repro/internal/ltl"
)

// Verify a packaged benchmark: the Treiber stack is linearizable and
// lock-free at 2 threads × 2 operations.
func Example() {
	ctx := context.Background()
	alg, err := bbv.AlgorithmByID("treiber")
	if err != nil {
		log.Fatal(err)
	}
	in := bbv.Instance{Threads: 2, Ops: 2}
	lin, err := bbv.CheckLinearizabilityContext(ctx, alg.Build(in.Algorithm()), alg.Spec(in.Algorithm()), in)
	if err != nil {
		log.Fatal(err)
	}
	lf, err := bbv.CheckLockFreeContext(ctx, alg.Build(in.Algorithm()), in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("linearizable:", lin.Linearizable)
	fmt.Println("lock-free:", lf.LockFree)
	// Output:
	// linearizable: true
	// lock-free: true
}

// Reproduce the paper's known bug: the pre-errata Harris–Michael list
// lets two threads remove the same key.
func ExampleCheckLinearizabilityContext_bug() {
	ctx := context.Background()
	alg, err := bbv.AlgorithmByID("hm-list-buggy")
	if err != nil {
		log.Fatal(err)
	}
	in := bbv.Instance{Threads: 2, Ops: 2}
	res, err := bbv.CheckLinearizabilityContext(ctx, alg.Build(in.Algorithm()), alg.Spec(in.Algorithm()), in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("linearizable:", res.Linearizable)
	last := res.Counterexample.Trace[len(res.Counterexample.Trace)-1]
	fmt.Println("offending action:", last)
	// Output:
	// linearizable: false
	// offending action: t2.ret.Remove(true)
}

// Reproduce the paper's new bug: the revised hazard-pointer stack
// diverges, violating lock-freedom.
func ExampleCheckLockFreeContext_divergence() {
	ctx := context.Background()
	alg, err := bbv.AlgorithmByID("treiber-hp-fu")
	if err != nil {
		log.Fatal(err)
	}
	in := bbv.Instance{Threads: 2, Ops: 2}
	res, err := bbv.CheckLockFreeContext(ctx, alg.Build(in.Algorithm()), in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("lock-free:", res.LockFree)
	fmt.Println("has divergence diagnostic:", res.Divergence != nil)
	// Output:
	// lock-free: false
	// has divergence diagnostic: true
}

// Model-check a next-free LTL progress property: the HW queue's dequeue
// can rescan an empty array forever.
func ExampleCheckLTL() {
	alg, err := bbv.AlgorithmByID("hw-queue")
	if err != nil {
		log.Fatal(err)
	}
	in := bbv.Instance{Threads: 3, Ops: 1}
	res, err := bbv.CheckLTL(alg.Build(in.Algorithm()), ltl.LockFreedom(), in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("GF(return or terminated) holds:", res.Holds)
	// Output:
	// GF(return or terminated) holds: false
}

// Compare an object with its specification under weak and branching
// bisimilarity (a Table VII row): the simple fixed-LP Treiber stack is
// equivalent to its atomic specification under both notions.
func ExampleCompareWithSpecContext() {
	ctx := context.Background()
	alg, err := bbv.AlgorithmByID("treiber")
	if err != nil {
		log.Fatal(err)
	}
	in := bbv.Instance{Threads: 2, Ops: 2}
	rep, err := bbv.CompareWithSpecContext(ctx, alg.Build(in.Algorithm()), alg.Spec(in.Algorithm()), in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("weak bisimilar:", rep.WeakBisimilar)
	fmt.Println("branching bisimilar:", rep.BranchBisimilar)
	// Output:
	// weak bisimilar: true
	// branching bisimilar: true
}

// Explain why the MS queue is not branching bisimilar to its atomic
// specification (the non-fixed linearization point of Fig. 7): the
// engine reports the refinement round at which they separate.
func ExampleExplainSpecMismatch() {
	alg, err := bbv.AlgorithmByID("ms-queue")
	if err != nil {
		log.Fatal(err)
	}
	in := bbv.Instance{Threads: 2, Ops: 3, Vals: []int32{1}}
	exp, mismatched, err := bbv.ExplainSpecMismatch(alg.Build(in.Algorithm()), alg.Spec(in.Algorithm()), in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("mismatched:", mismatched)
	fmt.Println("separates at a refinement round:", exp.Round > 1)
	// Output:
	// mismatched: true
	// separates at a refinement round: true
}
