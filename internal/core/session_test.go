package core_test

import (
	"context"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/machine"
)

// TestSessionMatchesFresh checks that a shared artifact session returns
// verdicts identical to independent one-shot core.Check* calls for every
// Table II benchmark, including the two buggy rows whose counterexample
// and divergence diagnostics must also survive artifact reuse.
func TestSessionMatchesFresh(t *testing.T) {
	ccfg := core.Config{Threads: 2, Ops: 2}
	cfg := algorithms.Config{Threads: 2, Ops: 2}
	for _, a := range algorithms.TableII() {
		a := a
		t.Run(a.ID, func(t *testing.T) {
			sess := core.NewSession(ccfg)
			impl := a.Build(cfg)

			fresh, err := core.NewSession(ccfg).CheckLinearizabilityContext(context.Background(), a.Build(cfg), a.Spec(cfg))
			if err != nil {
				t.Fatalf("fresh linearizability: %v", err)
			}
			got, err := sess.CheckLinearizabilityContext(context.Background(), impl, a.Spec(cfg))
			if err != nil {
				t.Fatalf("session linearizability: %v", err)
			}
			if got.Linearizable != fresh.Linearizable ||
				got.ImplStates != fresh.ImplStates || got.SpecStates != fresh.SpecStates ||
				got.ImplQuotientStates != fresh.ImplQuotientStates || got.SpecQuotient != fresh.SpecQuotient {
				t.Errorf("linearizability mismatch: session %+v fresh %+v", got, fresh)
			}
			var gotCx, freshCx string
			if got.Counterexample != nil {
				gotCx = got.Counterexample.Format()
			}
			if fresh.Counterexample != nil {
				freshCx = fresh.Counterexample.Format()
			}
			if gotCx != freshCx {
				t.Errorf("counterexample mismatch:\nsession:\n%s\nfresh:\n%s", gotCx, freshCx)
			}

			freshD, err := core.NewSession(ccfg).CheckDeadlockFreeContext(context.Background(), a.Build(cfg))
			if err != nil {
				t.Fatalf("fresh deadlock: %v", err)
			}
			gotD, err := sess.CheckDeadlockFreeContext(context.Background(), impl)
			if err != nil {
				t.Fatalf("session deadlock: %v", err)
			}
			if gotD.DeadlockFree != freshD.DeadlockFree || gotD.States != freshD.States {
				t.Errorf("deadlock mismatch: session %+v fresh %+v", gotD, freshD)
			}

			if a.LockBased {
				return
			}
			freshLF, err := core.NewSession(ccfg).CheckLockFreeAutoContext(context.Background(), a.Build(cfg))
			if err != nil {
				t.Fatalf("fresh lock-freedom: %v", err)
			}
			gotLF, err := sess.CheckLockFreeAutoContext(context.Background(), impl)
			if err != nil {
				t.Fatalf("session lock-freedom: %v", err)
			}
			if gotLF.LockFree != freshLF.LockFree || gotLF.Bisimilar != freshLF.Bisimilar ||
				gotLF.Theorem != freshLF.Theorem ||
				gotLF.ImplStates != freshLF.ImplStates || gotLF.AbstractStates != freshLF.AbstractStates {
				t.Errorf("lock-freedom mismatch: session %+v fresh %+v", gotLF, freshLF)
			}
			var gotDiv, freshDiv string
			if gotLF.Divergence != nil {
				gotDiv = gotLF.Divergence.Format()
			}
			if freshLF.Divergence != nil {
				freshDiv = freshLF.Divergence.Format()
			}
			if gotDiv != freshDiv {
				t.Errorf("divergence mismatch:\nsession:\n%s\nfresh:\n%s", gotDiv, freshDiv)
			}
		})
	}
}

// TestSessionSingleExploration proves the tentpole property with the
// exploration observer hook: a session running linearizability,
// lock-freedom, deadlock-freedom and the Table VII comparison over the
// same object explores each distinct program exactly once.
func TestSessionSingleExploration(t *testing.T) {
	explores := map[*machine.Program]int{}
	restore := machine.SetExploreObserver(func(p *machine.Program) { explores[p]++ })
	defer restore()

	a, err := algorithms.ByID("ms-queue")
	if err != nil {
		t.Fatal(err)
	}
	cfg := algorithms.Config{Threads: 2, Ops: 2, Vals: []int32{1}}
	sess := core.NewSession(core.Config{Threads: 2, Ops: 2})
	impl := a.Build(cfg)
	spec := a.Spec(cfg)

	if _, err := sess.CheckLinearizabilityContext(context.Background(), impl, spec); err != nil {
		t.Fatalf("linearizability: %v", err)
	}
	if _, err := sess.CheckLockFreeAutoContext(context.Background(), impl); err != nil {
		t.Fatalf("lock-freedom: %v", err)
	}
	if _, err := sess.CheckDeadlockFreeContext(context.Background(), impl); err != nil {
		t.Fatalf("deadlock: %v", err)
	}
	if _, err := sess.CompareWithSpecContext(context.Background(), impl, spec); err != nil {
		t.Fatalf("compare: %v", err)
	}

	if len(explores) != 2 {
		t.Fatalf("explored %d distinct programs, want 2 (impl, spec)", len(explores))
	}
	for p, n := range explores {
		if n != 1 {
			t.Errorf("program %s explored %d times, want 1", p.Name, n)
		}
	}

	// The stage log mirrors this: every re-request of an artifact is
	// recorded as a cache hit.
	var exploreRuns, exploreHits int
	for _, st := range sess.Stats() {
		if st.Stage != core.StageExplore {
			continue
		}
		if st.Cached {
			exploreHits++
		} else {
			exploreRuns++
		}
	}
	if exploreRuns != 2 {
		t.Errorf("stage log records %d explore runs, want 2", exploreRuns)
	}
	if exploreHits == 0 {
		t.Errorf("stage log records no cached explore stages across 4 checks")
	}
}

// TestSessionCancellationReuse checks that artifacts computed before a
// canceled check survive in the session: the canceled check fails, and a
// later run reuses the impl exploration without redoing it, finishing
// with the same verdict as an untouched session.
func TestSessionCancellationReuse(t *testing.T) {
	explores := map[*machine.Program]int{}
	restore := machine.SetExploreObserver(func(p *machine.Program) { explores[p]++ })
	defer restore()

	a, err := algorithms.ByID("treiber")
	if err != nil {
		t.Fatal(err)
	}
	cfg := algorithms.Config{Threads: 2, Ops: 2}
	ccfg := core.Config{Threads: 2, Ops: 2}
	sess := core.NewSession(ccfg)
	impl := a.Build(cfg)
	spec := a.Spec(cfg)

	// Warm the impl artifact, then cancel a check that needs impl + spec.
	if _, err := sess.CheckDeadlockFreeContext(context.Background(), impl); err != nil {
		t.Fatalf("deadlock: %v", err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.CheckLinearizabilityContext(canceled, impl, spec); err == nil {
		t.Fatal("canceled linearizability check succeeded, want error")
	}

	// The session must still be usable and must not redo the impl
	// exploration.
	got, err := sess.CheckLinearizabilityContext(context.Background(), impl, spec)
	if err != nil {
		t.Fatalf("post-cancel linearizability: %v", err)
	}
	if explores[impl] != 1 {
		t.Errorf("impl explored %d times, want 1 (cancellation must not evict)", explores[impl])
	}
	fresh, err := core.NewSession(ccfg).CheckLinearizabilityContext(context.Background(), a.Build(cfg), a.Spec(cfg))
	if err != nil {
		t.Fatalf("fresh linearizability: %v", err)
	}
	if got.Linearizable != fresh.Linearizable || got.ImplStates != fresh.ImplStates ||
		got.ImplQuotientStates != fresh.ImplQuotientStates {
		t.Errorf("post-cancel verdict mismatch: session %+v fresh %+v", got, fresh)
	}
}
