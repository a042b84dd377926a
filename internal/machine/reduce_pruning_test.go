package machine_test

// Tests for the τ-confluence pruning rule inside the explorer: with a
// Reduction artifact installed, the reduced LTS must be byte-identical
// across worker counts and memory budgets (the pruning decision is a
// pure function of the canonical state and the artifact), strictly
// smaller than the full LTS on the reducible models, and a mis-shaped
// or empty artifact must change nothing.

import (
	"context"
	"fmt"
	"testing"

	bbvlexamples "repro/examples/bbvl"
	"repro/internal/algorithms"
	"repro/internal/bbvl"
	"repro/internal/bisim"
	"repro/internal/lts"
	"repro/internal/machine"
	"repro/internal/statestore"
	"repro/internal/vet"
)

// buildExample compiles one embedded BBVL model and its reduction
// artifact at 2×2.
func buildExample(t *testing.T, name string) (*machine.Program, *machine.Reduction) {
	t.Helper()
	src, err := bbvlexamples.Source(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := bbvl.Load(bbvlexamples.Filename(name), src)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Build(algorithms.Config{Threads: 2, Ops: 2})
	art := vet.Reduce(p, vet.Options{Threads: 2, Ops: 2})
	if art == nil {
		t.Fatalf("%s: no reduction artifact", name)
	}
	return p, art.Machine()
}

// minSaved is the per-model floor on the fraction of states the 2×2
// reduction must remove. The lock-based models clear 20% at every
// instance (their whole critical sections compress); the lock-free
// models' retry loops genuinely conflict on the shared tip, so static
// confluence only licenses their node-preparation and private-read
// statements — a few percent at 2×2, growing with threads (see
// EXPERIMENTS.md for the measured scaling).
var minSaved = map[string]float64{
	"spinlock-stack": 0.20,
	"spinlock-queue": 0.20,
	"treiber":        0.05,
	"msqueue":        0.01,
}

func TestReductionShrinksAndStaysDeterministic(t *testing.T) {
	for _, name := range bbvlexamples.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, red := buildExample(t, name)
			if red.Empty() {
				t.Fatalf("%s: artifact licenses nothing", name)
			}

			// The full and reduced explorations share one alphabet so the
			// bisimulation check below can take their disjoint union.
			acts, labels := lts.NewAlphabet(), lts.NewAlphabet()
			full, fullInfo, err := machine.ExploreWithInfoContext(context.Background(), p, machine.Options{Threads: 2, Ops: 2, Workers: 1, Acts: acts, Labels: labels})
			if err != nil {
				t.Fatal(err)
			}
			if fullInfo.Stats.PrunedStates != 0 {
				t.Fatalf("full exploration pruned %d states", fullInfo.Stats.PrunedStates)
			}

			base, baseInfo, err := machine.ExploreWithInfoContext(context.Background(), p, machine.Options{Threads: 2, Ops: 2, Workers: 1, Acts: acts, Labels: labels, Reduction: red})
			if err != nil {
				t.Fatal(err)
			}
			if baseInfo.Stats.PrunedStates == 0 {
				t.Fatalf("%s: reduction pruned nothing", name)
			}
			fullN, redN := full.NumStates(), base.NumStates()
			if redN >= fullN {
				t.Fatalf("%s: reduced exploration has %d states, full %d", name, redN, fullN)
			}
			saved := float64(fullN-redN) / float64(fullN)
			t.Logf("%s: %d -> %d states (%.1f%% fewer), %d expansions pruned",
				name, fullN, redN, 100*saved, baseInfo.Stats.PrunedStates)
			want, ok := minSaved[name]
			if !ok {
				want = 0.01
			}
			if saved < want {
				t.Errorf("%s: only %.1f%% reduction, want >= %.0f%%", name, 100*saved, 100*want)
			}

			// The reduction's whole correctness claim: the reduced LTS is
			// divergence-sensitive branching bisimilar to the full one.
			eq, err := bisim.EquivalentContext(context.Background(), full, base, bisim.KindDivBranching)
			if err != nil {
				t.Fatal(err)
			}
			if !eq {
				t.Fatalf("%s: reduced LTS is not ≈div-equivalent to the full one", name)
			}

			// Worker counts and memory budgets must not change a single
			// transition of the reduced LTS.
			variants := []machine.Options{
				{Threads: 2, Ops: 2, Workers: 8, Acts: acts, Labels: labels, Reduction: red},
				{Threads: 2, Ops: 2, Workers: 4, Acts: acts, Labels: labels, Reduction: red,
					MemBudget: 8 << 20, SpillDir: t.TempDir(), Backend: statestore.Runtime()},
			}
			for i, opt := range variants {
				got, gotInfo, err := machine.ExploreWithInfoContext(context.Background(), p, opt)
				if err != nil {
					t.Fatal(err)
				}
				ctx := fmt.Sprintf("%s variant %d (workers=%d membudget=%d)", name, i, opt.Workers, opt.MemBudget)
				assertSameLTS(t, ctx, base, got)
				if gotInfo.Stats.PrunedStates != baseInfo.Stats.PrunedStates {
					t.Fatalf("%s: pruned %d states, one worker pruned %d",
						ctx, gotInfo.Stats.PrunedStates, baseInfo.Stats.PrunedStates)
				}
			}
		})
	}
}

// TestReductionMisshapenArtifactIgnored: an artifact whose shape does
// not match the program licenses nothing — the explorer must fall back
// to full exploration rather than misapply it.
func TestReductionMisshapenArtifactIgnored(t *testing.T) {
	p, _ := buildExample(t, "treiber")
	full, _, err := machine.ExploreWithInfoContext(context.Background(), p, machine.Options{Threads: 2, Ops: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad := &machine.Reduction{Confluent: [][]bool{{true}}}
	if bad.Matches(p) {
		t.Fatal("mis-shaped artifact claims to match")
	}
	got, info, err := machine.ExploreWithInfoContext(context.Background(), p, machine.Options{Threads: 2, Ops: 2, Reduction: bad})
	if err != nil {
		t.Fatal(err)
	}
	assertSameLTS(t, "misshapen artifact", full, got)
	if info.Stats.PrunedStates != 0 {
		t.Fatalf("mis-shaped artifact pruned %d states", info.Stats.PrunedStates)
	}
}
