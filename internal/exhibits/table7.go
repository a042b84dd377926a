package exhibits

import (
	"context"
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/core"
)

// Table7 reproduces Table VII (Section VII): for each object, the sizes
// of Δ, Δ/≈, Θsp, Θsp/≈ and whether Δ ~w Θsp (weak bisimilarity) and
// Δ ≈ Θsp (branching bisimilarity). Only the simple fixed-LP Treiber
// stack is bisimilar to its single-atomic-block specification; the
// intricate algorithms are not, under either notion.
//
// Each row lists preferred instances in decreasing size; the first one
// within the state budget is used (the paper's largest instances, e.g.
// HSY at 3-2 with 2.5·10⁸ states, need the full budget or more).
func Table7(opt Options) (*Table, error) {
	ctx := context.Background()
	t := &Table{
		Title:   "Table VII: checking object ~w spec and object ~br spec for various algorithms",
		Columns: []string{"#Th-#Op", "Object", "states", "quotient", "spec", "spec/~", "weak", "branching"},
	}
	rows := []struct {
		id        string
		instances []instance
	}{
		{"ms-queue", []instance{{2, 5}, {2, 4}, {2, 3}}},
		{"dglm-queue", []instance{{2, 5}, {2, 4}, {2, 3}}},
		{"hw-queue", []instance{{3, 2}, {2, 2}}},
		{"hm-list", []instance{{3, 2}, {2, 2}}},
		{"lazy-list", []instance{{3, 2}, {2, 2}}},
		{"ccas", []instance{{4, 1}, {3, 1}}},
		{"treiber", []instance{{2, 2}}},
		{"hsy-stack", []instance{{3, 2}, {2, 3}, {2, 2}}},
	}
	if opt.Quick {
		for i := range rows {
			rows[i].instances = []instance{rows[i].instances[len(rows[i].instances)-1]}
		}
	}
	for _, r := range rows {
		a := mustAlg(r.id)
		done := false
		for _, in := range r.instances {
			// Queues use the single-value sweep universe; the others keep
			// their defaults (keys / pair arguments).
			var vals []int32
			if r.id == "ms-queue" || r.id == "dglm-queue" || r.id == "hw-queue" {
				vals = oneVal
			}
			cfg := algorithms.Config{Threads: in.threads, Ops: in.ops, Vals: vals}
			sess := core.NewSession(opt.coreConfig(in.threads, in.ops))
			rep, err := sess.CompareWithSpecContext(ctx, a.Build(cfg), a.Spec(cfg))
			if err != nil {
				if isStateLimit(err) {
					continue
				}
				return nil, fmt.Errorf("table7 %s %s: %w", r.id, in, err)
			}
			t.Stages = append(t.Stages, sess.Stats()...)
			t.Add(in.String(), a.Display, rep.ImplStates, rep.ImplQuotient,
				rep.SpecStates, rep.SpecQuotient, rep.WeakBisimilar, rep.BranchBisimilar)
			done = true
			break
		}
		if !done {
			t.Add(r.instances[0].String(), a.Display, capped, "-", "-", "-", "-", "-")
		}
	}
	t.Note("Both equivalences are decided on the branching-bisimulation quotients (sound: ~br refines ~w and every system is ~br its quotient).")
	return t, nil
}
