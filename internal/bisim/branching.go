package bisim

import (
	"context"
	"fmt"

	"repro/internal/lts"
)

// CanceledError reports that a partition-refinement computation was
// abandoned because its context was canceled or its deadline expired. It
// unwraps to the context cause, so errors.Is(err, context.Canceled)
// works as expected.
type CanceledError struct {
	// Stage names the interrupted computation (e.g. "branching
	// refinement").
	Stage string
	Cause error
}

// Error implements the error interface.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("bisim: %s canceled: %v", e.Stage, e.Cause)
}

// Unwrap exposes the context cause.
func (e *CanceledError) Unwrap() error { return e.Cause }

// checkCtx returns the typed cancellation error when ctx is done.
func checkCtx(ctx context.Context, stage string) error {
	if ctx.Err() != nil {
		return &CanceledError{Stage: stage, Cause: context.Cause(ctx)}
	}
	return nil
}

// divergenceAction is the synthetic visible action used to encode
// divergence when computing divergence-sensitive branching bisimulation.
// It is never interned into an Alphabet; the ID is chosen outside any
// realistic alphabet range and only lives inside signature pairs and the
// τ-free systems of strong and weak refinement.
const divergenceAction lts.ActionID = 1<<30 - 1

// tauHat is the synthetic visible action τ̂ that stands for τ in the
// τ-free systems strong and weak refinement run on (strong, saturate).
// Like δ it never comes from an Alphabet.
const tauHat lts.ActionID = 1<<30 - 2

// checkReservedActions guards the reserved action IDs τ̂ and δ: if an
// alphabet ever grew to n > τ̂ interned actions, a genuine action would
// silently collide with τ̂ or δ and corrupt the partition. The guard
// fails loudly instead; it is called wherever δ signature pairs or a
// τ-free system are built.
func checkReservedActions(n int) {
	if lts.ActionID(n) > tauHat {
		panic(fmt.Sprintf("bisim: alphabet with %d actions collides with the reserved action IDs %d (τ̂) and %d (δ)", n, tauHat, divergenceAction))
	}
}

// BranchingContext computes the branching bisimulation partition of l
// (the relation ≈ of Definition 4.1, in its standard stuttering form).
// The refinement loop polls ctx once per round and returns a
// *CanceledError when it is done.
func BranchingContext(ctx context.Context, l *lts.LTS) (*Partition, error) {
	return branching(ctx, l, false)
}

// DivergenceSensitiveBranchingContext computes the divergence-sensitive
// branching bisimulation partition of l (the relation ≈div of
// Definition 5.5), with cancellation like BranchingContext.
func DivergenceSensitiveBranchingContext(ctx context.Context, l *lts.LTS) (*Partition, error) {
	return branching(ctx, l, true)
}

func branching(ctx context.Context, l *lts.LTS, divSensitive bool) (*Partition, error) {
	c := collapse(l, divSensitive)
	cp, _, err := splitterOnDAG(ctx, c.l, c.divergent)
	if err != nil {
		return nil, err
	}
	return c.lift(cp), nil
}

// tauCollapse is an LTS with its τ-SCCs merged into single states, the
// input every branching refinement runs on.
type tauCollapse struct {
	l *lts.LTS
	// stateOf maps original states to collapsed states.
	stateOf []int32
	// divergent marks the collapsed states that came from a τ-cycle; it
	// is all false unless divergence-sensitive.
	divergent []bool
}

// collapse merges the τ-SCCs of l, which is sound because all states on a
// τ-cycle are branching bisimilar (Lemma 5.6), and, when divSensitive,
// marks every collapsed state that came from a τ-cycle: the refiners give
// those states a visible δ self-loop.
func collapse(l *lts.LTS, divSensitive bool) *tauCollapse {
	if divSensitive {
		checkReservedActions(l.Acts.Len())
	}
	scc := lts.TauSCCs(l)
	cl, stateOf := lts.CollapseTauSCCs(l, scc)
	divergent := make([]bool, cl.NumStates())
	if divSensitive {
		copy(divergent, scc.Divergent)
	}
	return &tauCollapse{l: cl, stateOf: stateOf, divergent: divergent}
}

// lift maps a partition of the collapsed system back to the original
// states.
func (c *tauCollapse) lift(cp *Partition) *Partition {
	blockOf := make([]int32, len(c.stateOf))
	for s, cs := range c.stateOf {
		blockOf[s] = cp.BlockOf[cs]
	}
	return &Partition{BlockOf: blockOf, Num: cp.Num, Rounds: cp.Rounds}
}
