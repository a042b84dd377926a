package bisim

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/lts"
)

// chainLTS builds a long tau/visible chain so refinement has work to do.
func chainLTS(t *testing.T, n int) *lts.LTS {
	t.Helper()
	acts := lts.NewAlphabet()
	edges := make([][3]interface{}, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, [3]interface{}{i, fmt.Sprintf("a%d", i%7), i + 1})
	}
	return buildLTS(t, acts, 0, edges)
}

// TestCancelBeforeRefinement pins the cancellation contract of every
// context-aware bisim entry point: a pre-canceled context aborts before
// (or between) refinement rounds with a *CanceledError that unwraps to
// context.Canceled.
func TestCancelBeforeRefinement(t *testing.T) {
	l := chainLTS(t, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	checks := map[string]func() error{
		"strong": func() error { _, err := PartitionContext(ctx, l, KindStrong); return err },
		"branching": func() error {
			_, err := BranchingContext(ctx, l)
			return err
		},
		"branching-div": func() error {
			_, err := DivergenceSensitiveBranchingContext(ctx, l)
			return err
		},
		"weak":     func() error { _, err := PartitionContext(ctx, l, KindWeak); return err },
		"div-weak": func() error { _, err := PartitionContext(ctx, l, KindDivWeak); return err },
		"reduce": func() error {
			_, _, err := ReduceBranchingContext(ctx, l)
			return err
		},
		"equivalent": func() error {
			_, err := EquivalentContext(ctx, l, l, KindBranching)
			return err
		},
	}
	for name, run := range checks {
		err := run()
		if err == nil {
			t.Errorf("%s: canceled context must abort the computation", name)
			continue
		}
		var ce *CanceledError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %v is not a *CanceledError", name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v must unwrap to context.Canceled", name, err)
		}
	}
}

// TestContextEntryPointsComplete pins that a live context lets the
// computation finish: the per-kind entry point agrees with
// PartitionContext, and an LTS is equivalent to itself.
func TestContextEntryPointsComplete(t *testing.T) {
	l := chainLTS(t, 50)
	ctx := context.Background()

	plain := mustPartition(t, l, KindBranching)
	viaCtx, err := BranchingContext(ctx, l)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Num != viaCtx.Num {
		t.Fatalf("BranchingContext disagrees with PartitionContext: %d vs %d blocks",
			viaCtx.Num, plain.Num)
	}

	eq, err := EquivalentContext(ctx, l, l, KindBranching)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("an LTS must be branching bisimilar to itself")
	}
}
