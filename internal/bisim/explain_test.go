package bisim

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/lts"
)

func TestExplainVisibleDifference(t *testing.T) {
	acts := lts.NewAlphabet()
	a := buildLTS(t, acts, 0, [][3]interface{}{{0, "x", 1}})
	b := buildLTS(t, acts, 0, [][3]interface{}{{0, "y", 1}})
	exp, ok, err := ExplainContext(context.Background(), a, b, KindBranching)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("systems differ, Explain should report it")
	}
	if exp.Round != 1 {
		t.Fatalf("round = %d, want 1", exp.Round)
	}
	if len(exp.Experiment) != 1 || !exp.Experiment[0].Final {
		t.Fatalf("want a single final step, got %+v", exp.Experiment)
	}
	if got := exp.Experiment[0].Action; got != "x" && got != "y" {
		t.Fatalf("final action = %q, want x or y", got)
	}
	if !strings.Contains(exp.Format(), "perform") {
		t.Fatalf("explanation misses the action: %s", exp.Format())
	}
	if err := exp.Verify(a, b); err != nil {
		t.Fatalf("experiment does not replay: %v", err)
	}
}

func TestExplainDivergence(t *testing.T) {
	acts := lts.NewAlphabet()
	a := buildLTS(t, acts, 0, [][3]interface{}{{0, "x", 1}})
	b := buildLTS(t, acts, 0, [][3]interface{}{{0, "x", 1}, {1, lts.TauName, 1}})
	if _, ok, err := ExplainContext(context.Background(), a, b, KindBranching); err != nil || ok {
		t.Fatalf("plain branching should find them bisimilar (ok=%v err=%v)", ok, err)
	}
	exp, ok, err := ExplainContext(context.Background(), a, b, KindDivBranching)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("divergence-sensitive Explain should report the tau loop")
	}
	if !strings.Contains(exp.Format(), "diverge") {
		t.Fatalf("explanation should mention divergence:\n%s", exp.Format())
	}
	if err := exp.Verify(a, b); err != nil {
		t.Fatalf("experiment does not replay: %v", err)
	}
}

func TestExplainDeeperRound(t *testing.T) {
	acts := lts.NewAlphabet()
	// a.(b + c) vs a.b + a.c separate only at round 2.
	a := buildLTS(t, acts, 0, [][3]interface{}{
		{0, "a", 1}, {1, "b", 2}, {1, "c", 3},
	})
	b := buildLTS(t, acts, 0, [][3]interface{}{
		{0, "a", 1}, {0, "a", 2}, {1, "b", 3}, {2, "c", 4},
	})
	exp, ok, err := ExplainContext(context.Background(), a, b, KindBranching)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("expected inequivalence")
	}
	if exp.Round < 2 {
		t.Fatalf("round = %d, want >= 2", exp.Round)
	}
	if got := len(exp.Experiment); got == 0 || got > exp.Round {
		t.Fatalf("experiment has %d steps for separation round %d", got, exp.Round)
	}
	if err := exp.Verify(a, b); err != nil {
		t.Fatalf("experiment does not replay: %v", err)
	}
	// The shortest experiment here is: perform a (right commits to one
	// branch), then the branch action only the left still has.
	if !exp.Experiment[0].LeftLeads && exp.Experiment[0].Action == "" {
		t.Fatalf("first step should perform a visible action: %+v", exp.Experiment[0])
	}
}

func TestExplainRejectsUnsupportedKinds(t *testing.T) {
	acts := lts.NewAlphabet()
	a := buildLTS(t, acts, 0, nil)
	if _, _, err := ExplainContext(context.Background(), a, a, KindWeak); err == nil {
		t.Fatal("weak kind must be rejected")
	}
	other := buildLTS(t, lts.NewAlphabet(), 0, nil)
	if _, _, err := ExplainContext(context.Background(), a, other, KindBranching); err == nil {
		t.Fatal("alphabet mismatch must error")
	}
}

// TestExplainAgreesWithEquivalent: ExplainContext(a,b) reports
// inequivalence exactly when EquivalentContext(a,b) is false, and every
// reported experiment replays on the two systems.
func TestExplainAgreesWithEquivalent(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		acts := lts.NewAlphabet()
		names := []string{lts.TauName, "a", "b"}
		build := func() *lts.LTS {
			n := 2 + r.Intn(7)
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
			eq, err := EquivalentContext(context.Background(), a, b, k)
			if err != nil {
				t.Fatal(err)
			}
			exp, reported, err := ExplainContext(context.Background(), a, b, k)
			if err != nil {
				t.Fatal(err)
			}
			if reported == eq {
				t.Fatalf("seed %d kind %v: Equivalent=%v but Explain reported inequivalence=%v", seed, k, eq, reported)
			}
			if reported {
				if err := exp.Verify(a, b); err != nil {
					t.Fatalf("seed %d kind %v: experiment does not replay: %v\n%s", seed, k, err, exp.Format())
				}
				if len(exp.Experiment) == 0 || len(exp.Experiment) > exp.Round {
					t.Fatalf("seed %d kind %v: %d steps for separation round %d", seed, k, len(exp.Experiment), exp.Round)
				}
			}
		}
	}
}
