package bbv_test

import (
	"context"
	"testing"

	bbvlexamples "repro/examples/bbvl"
	"repro/internal/algorithms"
	"repro/internal/bbvl"
	"repro/internal/core"
	"repro/internal/statestore"
)

// TestReductionCrossValidation is the end-to-end guarantee behind the
// -reduction flag: for every embedded BBVL model (whose IR licenses
// real τ-confluence pruning) and for hand-coded Table II registry
// programs (no IR — the provider yields nil and reduction must be an
// exact no-op), the full and the reduced exploration produce identical
// verdicts AND identical quotient block counts, sequentially, with 8
// workers, and with an 8 MiB memory budget spilling state storage to
// disk. Only the raw explored-state count may shrink — and for the
// lock-based models it must.
func TestReductionCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	type target struct {
		name string
		alg  *algorithms.Algorithm
		ir   bool // carries BBVL IR, so vet can license a reduction
	}
	var targets []target
	for _, n := range bbvlexamples.Names() {
		src, err := bbvlexamples.Source(n)
		if err != nil {
			t.Fatal(err)
		}
		m, err := bbvl.Load(bbvlexamples.Filename(n), src)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, target{name: n, alg: m.Algorithm(), ir: true})
	}
	for _, id := range []string{"treiber", "ms-queue"} {
		a, err := algorithms.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, target{name: id, alg: a, ir: false})
	}

	type outcome struct {
		lin             bool
		implQ, specQ    int
		lockFree, hasLF bool
		deadFree, hasDF bool
	}
	variants := []struct {
		name string
		cfg  func() core.Config
	}{
		{"workers=1", func() core.Config {
			return core.Config{Threads: 2, Ops: 2, Workers: 1}
		}},
		{"workers=8", func() core.Config {
			return core.Config{Threads: 2, Ops: 2, Workers: 8}
		}},
		{"spill-8MiB", func() core.Config {
			return core.Config{
				Threads: 2, Ops: 2, Workers: 4,
				MemBudget: 8 << 20, SpillDir: t.TempDir(),
				Backend: statestore.Runtime(),
			}
		}},
	}
	acfg := algorithms.Config{Threads: 2, Ops: 2}

	for _, tgt := range targets {
		for _, v := range variants {
			run := func(reduce bool) (outcome, int) {
				cfg := v.cfg()
				if reduce {
					cfg.Reduction = true
				}
				sess := core.NewSession(cfg)
				impl := tgt.alg.Build(acfg)
				lin, err := sess.CheckLinearizabilityContext(context.Background(), impl, tgt.alg.Spec(acfg))
				if err != nil {
					t.Fatalf("%s/%s (reduce=%v): %v", tgt.name, v.name, reduce, err)
				}
				o := outcome{lin: lin.Linearizable, implQ: lin.ImplQuotientStates, specQ: lin.SpecQuotient}
				if tgt.alg.LockBased {
					d, err := sess.CheckDeadlockFreeContext(context.Background(), impl)
					if err != nil {
						t.Fatalf("%s/%s (reduce=%v): %v", tgt.name, v.name, reduce, err)
					}
					o.deadFree, o.hasDF = d.DeadlockFree, true
				} else {
					lf, err := sess.CheckLockFreeAutoContext(context.Background(), impl)
					if err != nil {
						t.Fatalf("%s/%s (reduce=%v): %v", tgt.name, v.name, reduce, err)
					}
					o.lockFree, o.hasLF = lf.LockFree, true
				}
				return o, lin.ImplStates
			}
			full, fullStates := run(false)
			red, redStates := run(true)
			if full != red {
				t.Errorf("%s/%s: reduction changed a verdict or quotient:\n  full:    %+v\n  reduced: %+v",
					tgt.name, v.name, full, red)
			}
			switch {
			case redStates > fullStates:
				t.Errorf("%s/%s: reduced exploration grew: full=%d reduced=%d",
					tgt.name, v.name, fullStates, redStates)
			case !tgt.ir && redStates != fullStates:
				t.Errorf("%s/%s: hand-coded program (no IR) must be unaffected: full=%d reduced=%d",
					tgt.name, v.name, fullStates, redStates)
			case tgt.ir && tgt.alg.LockBased && redStates >= fullStates:
				t.Errorf("%s/%s: lock-based model pruned nothing: full=%d reduced=%d",
					tgt.name, v.name, fullStates, redStates)
			}
		}
	}
}
