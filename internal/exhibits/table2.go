package exhibits

import (
	"context"
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/core"
)

// Table2 reproduces Table II: linearizability and lock-freedom verdicts
// for the 14 benchmarks (15 rows: the HM list appears buggy and revised).
// Instances are 2 threads × 2 ops, which suffices for both bugs, as the
// paper observes ("all the found counterexamples are generated in case of
// just two or three threads").
func Table2(opt Options) (*Table, error) {
	ctx := context.Background()
	t := &Table{
		Title:   "Table II: verified algorithms using branching bisimulation (2 threads x 2 ops)",
		Columns: []string{"Case study", "Linearizability", "Lock-freedom", "Non-fixed LPs", "matches paper"},
	}
	threads, ops := 2, 2
	ccfg := opt.coreConfig(threads, ops)
	cfg := algorithms.Config{Threads: threads, Ops: ops}
	for _, a := range algorithms.TableII() {
		// One artifact session per benchmark: the lock-freedom check
		// reuses the object LTS and quotient the linearizability check
		// already computed, halving the expensive exploration work.
		sess := core.NewSession(ccfg)
		impl := a.Build(cfg)
		lin, err := sess.CheckLinearizabilityContext(ctx, impl, a.Spec(cfg))
		if err != nil {
			return nil, fmt.Errorf("table2 %s: %w", a.ID, err)
		}
		linCell := "OK"
		if !lin.Linearizable {
			linCell = "VIOLATED"
		}
		lfCell := "-"
		match := lin.Linearizable == a.ExpectLinearizable
		if !a.LockBased {
			lf, err := sess.CheckLockFreeAutoContext(ctx, impl)
			if err != nil {
				return nil, fmt.Errorf("table2 %s: %w", a.ID, err)
			}
			if lf.LockFree {
				lfCell = "OK"
			} else {
				lfCell = "VIOLATED"
			}
			match = match && lf.LockFree == a.ExpectLockFree
			if !lf.LockFree && a.ID == "treiber-hp-fu" {
				t.Note("New bug (row 3, Treiber stack + HP revised): divergence found —\n%s", lf.Divergence.Format())
			}
		}
		if !lin.Linearizable && a.ID == "hm-list-buggy" {
			t.Note("Known bug (row 9-1, HM list): non-linearizable history —\n%s", lin.Counterexample.Format())
		}
		t.Add(a.Display+" "+a.Ref, linCell, lfCell, mark(a.NonFixedLPs), mark(match))
		t.Stages = append(t.Stages, sess.Stats()...)
	}
	return t, nil
}
