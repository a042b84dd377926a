// Quickstart: verify the Treiber stack — linearizability by quotient
// trace refinement (Theorem 5.3) and lock-freedom by divergence-sensitive
// branching bisimulation against its own quotient (Theorem 5.9).
package main

import (
	"context"
	"fmt"
	"log"

	bbv "repro"
)

func main() {
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
	fmt.Printf("%s, %d threads x %d ops\n", alg.Display, in.Threads, in.Ops)
	fmt.Printf("  state space:      %d states (spec: %d)\n", lin.ImplStates, lin.SpecStates)
	fmt.Printf("  quotient:         %d states (spec: %d) — a %.0fx reduction\n",
		lin.ImplQuotientStates, lin.SpecQuotient,
		float64(lin.ImplStates)/float64(lin.ImplQuotientStates))
	fmt.Printf("  linearizable:     %v  (%.2fs, no linearization points needed)\n",
		lin.Linearizable, lin.Elapsed.Seconds())

	lf, err := bbv.CheckLockFreeContext(ctx, alg.Build(in.Algorithm()), in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  lock-free:        %v  (Theorem %s, %.2fs)\n",
		lf.LockFree, lf.Theorem, lf.Elapsed.Seconds())
}
