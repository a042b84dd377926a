// Bughunt reproduces both bugs the paper found automatically
// (Section VI.F):
//
//  1. The known linearizability bug of the Harris–Michael lock-free list
//     as printed in the first edition of "The Art of Multiprocessor
//     Programming": remove's attemptMark ignores the current mark bit,
//     so two threads can remove the same key and both report success.
//     The counterexample is a non-linearizable history.
//  2. The new lock-freedom bug of the revised Treiber stack with hazard
//     pointers (Fu et al., CONCUR 2010): the reclaiming pop spins until
//     the victim cell is no longer hazard-pointed, so a stalled reader
//     blocks the reclaimer forever. The counterexample is a divergence —
//     an execution ending in a τ-cycle.
//
// Both counterexamples are found with just two threads.
package main

import (
	"context"
	"fmt"
	"log"

	bbv "repro"
)

func main() {
	ctx := context.Background()
	in := bbv.Instance{Threads: 2, Ops: 2}

	fmt.Println("== 1. Known bug: HM lock-free list (pre-errata) ==")
	hm, err := bbv.AlgorithmByID("hm-list-buggy")
	if err != nil {
		log.Fatal(err)
	}
	lin, err := bbv.CheckLinearizabilityContext(ctx, hm.Build(in.Algorithm()), hm.Spec(in.Algorithm()), in)
	if err != nil {
		log.Fatal(err)
	}
	if lin.Linearizable {
		log.Fatal("expected a linearizability violation")
	}
	fmt.Println("non-linearizable history (same key removed twice):")
	fmt.Print(lin.Counterexample.Format())

	fmt.Println()
	fmt.Println("== revised (errata) version of the same list ==")
	fixed, err := bbv.AlgorithmByID("hm-list")
	if err != nil {
		log.Fatal(err)
	}
	lin, err = bbv.CheckLinearizabilityContext(ctx, fixed.Build(in.Algorithm()), fixed.Spec(in.Algorithm()), in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("linearizable: %v\n", lin.Linearizable)

	fmt.Println()
	fmt.Println("== 2. New bug: Treiber stack + hazard pointers, revised version ==")
	fu, err := bbv.AlgorithmByID("treiber-hp-fu")
	if err != nil {
		log.Fatal(err)
	}
	lf, err := bbv.CheckLockFreeContext(ctx, fu.Build(in.Algorithm()), in)
	if err != nil {
		log.Fatal(err)
	}
	if lf.LockFree {
		log.Fatal("expected a lock-freedom violation")
	}
	fmt.Println("divergence (t1 spins at the reclamation scan H7 while t2 parks a hazard pointer at H2):")
	fmt.Print(lf.Divergence.Format())

	fmt.Println()
	fmt.Println("== the original hazard-pointer scheme (deferred reclamation) ==")
	hp, err := bbv.AlgorithmByID("treiber-hp")
	if err != nil {
		log.Fatal(err)
	}
	lf, err = bbv.CheckLockFreeContext(ctx, hp.Build(in.Algorithm()), in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lock-free: %v\n", lf.LockFree)
}
