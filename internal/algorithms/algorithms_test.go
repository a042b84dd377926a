package algorithms

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/bisim"
	"repro/internal/core"
	"repro/internal/lts"
	"repro/internal/machine"
	"repro/internal/refine"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 21 {
		t.Fatalf("registry has %d entries, want 21 (15 Table II rows + 6 extensions)", len(all))
	}
	if len(TableII()) != 15 {
		t.Fatalf("TableII has %d entries, want 15", len(TableII()))
	}
	for _, a := range TableII() {
		if a.Extension {
			t.Fatalf("%s: extension leaked into TableII", a.ID)
		}
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.ID == "" || a.Display == "" {
			t.Fatalf("entry missing ID or Display: %+v", a)
		}
		if seen[a.ID] {
			t.Fatalf("duplicate ID %s", a.ID)
		}
		seen[a.ID] = true
		if a.Build == nil || a.Spec == nil {
			t.Fatalf("%s: missing Build or Spec", a.ID)
		}
		got, err := ByID(a.ID)
		if err != nil || got.ID != a.ID {
			t.Fatalf("ByID(%s) = %v, %v", a.ID, got, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("ByID must reject unknown IDs")
	}
}

func TestAllProgramsValidate(t *testing.T) {
	cfg := Config{Threads: 2, Ops: 2}
	for _, a := range All() {
		if err := a.Build(cfg).Validate(); err != nil {
			t.Errorf("%s impl: %v", a.ID, err)
		}
		if err := a.Spec(cfg).Validate(); err != nil {
			t.Errorf("%s spec: %v", a.ID, err)
		}
		if a.Abstract != nil {
			if err := a.Abstract(cfg).Validate(); err != nil {
				t.Errorf("%s abstract: %v", a.ID, err)
			}
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	if got := (Config{}).Values(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("default values = %v", got)
	}
	if got := (Config{Vals: []int32{5}}).Values(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("custom values = %v", got)
	}
}

// TestTableIIVerdicts checks every row of Table II at 2 threads × 2 ops:
// linearizability for all 15 entries and lock-freedom for the
// non-blocking ones. The two bugs the paper reports must reproduce.
func TestTableIIVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("state-space exploration in -short mode")
	}
	cfg := Config{Threads: 2, Ops: 2}
	ccfg := core.Config{Threads: 2, Ops: 2}
	for _, a := range TableII() {
		a := a
		t.Run(a.ID, func(t *testing.T) {
			lin, err := core.NewSession(ccfg).CheckLinearizabilityContext(context.Background(), a.Build(cfg), a.Spec(cfg))
			if err != nil {
				t.Fatalf("linearizability check: %v", err)
			}
			if lin.Linearizable != a.ExpectLinearizable {
				t.Errorf("linearizable = %v, want %v", lin.Linearizable, a.ExpectLinearizable)
			}
			if !lin.Linearizable && lin.Counterexample == nil {
				t.Error("negative verdict must carry a counterexample")
			}
			if lin.ImplQuotientStates >= lin.ImplStates {
				t.Errorf("quotient (%d) not smaller than object (%d)", lin.ImplQuotientStates, lin.ImplStates)
			}
			if a.LockBased {
				return
			}
			lf, err := core.NewSession(ccfg).CheckLockFreeAutoContext(context.Background(), a.Build(cfg))
			if err != nil {
				t.Fatalf("lock-freedom check: %v", err)
			}
			if lf.LockFree != a.ExpectLockFree {
				t.Errorf("lock-free = %v, want %v", lf.LockFree, a.ExpectLockFree)
			}
			if !lf.LockFree {
				if lf.Divergence == nil {
					t.Fatal("negative verdict must carry a divergence")
				}
				// The divergence must be a genuine τ-lasso.
				for _, st := range lf.Divergence.Steps[lf.Divergence.Cycle:] {
					if !lts.IsTau(st.Action) {
						t.Error("divergence cycle contains a visible action")
					}
				}
			}
		})
	}
}

// TestHMListDoubleRemove pins the shape of the known HM-list bug: the
// counterexample ends with two consecutive successful removes of the
// same key (Section VI.F of the paper).
func TestHMListDoubleRemove(t *testing.T) {
	cfg := Config{Threads: 2, Ops: 2}
	a, err := ByID("hm-list-buggy")
	if err != nil {
		t.Fatal(err)
	}
	lin, err := core.NewSession(core.Config{Threads: 2, Ops: 2}).CheckLinearizabilityContext(context.Background(), a.Build(cfg), a.Spec(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if lin.Linearizable {
		t.Fatal("the buggy HM list must not be linearizable")
	}
	trace := lin.Counterexample.Trace
	removes := 0
	for _, act := range trace {
		if strings.Contains(act, "ret.Remove(true)") {
			removes++
		}
	}
	if removes < 2 {
		t.Fatalf("counterexample %v should contain two successful removes", trace)
	}
}

// TestFuStackDivergence pins the shape of the new bug: the divergence
// cycle sits in the reclaiming pop (label H7), one thread spinning on
// another's hazard pointer.
func TestFuStackDivergence(t *testing.T) {
	cfg := Config{Threads: 2, Ops: 2}
	a, err := ByID("treiber-hp-fu")
	if err != nil {
		t.Fatal(err)
	}
	lf, err := core.NewSession(core.Config{Threads: 2, Ops: 2}).CheckLockFreeAutoContext(context.Background(), a.Build(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if lf.LockFree {
		t.Fatal("the revised Treiber+HP stack must violate lock-freedom")
	}
	if lf.Divergence == nil {
		t.Fatal("missing divergence diagnostic")
	}
	formatted := lf.Divergence.Format()
	if !strings.Contains(formatted, "H7") {
		t.Fatalf("divergence should spin at the reclamation scan H7:\n%s", formatted)
	}
}

// TestAbstractPrograms checks Theorem 5.8's premise for the four
// algorithms the paper builds abstractions for: the concrete object is
// divergence-sensitive branching bisimilar to its abstract program, and
// the abstraction is strictly smaller.
func TestAbstractPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("state-space exploration in -short mode")
	}
	cfg := Config{Threads: 2, Ops: 2}
	for _, id := range []string{"ms-queue", "dglm-queue", "ccas", "rdcss"} {
		a, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if a.Abstract == nil {
			t.Fatalf("%s: abstract program missing", id)
		}
		res, err := core.NewSession(core.Config{Threads: 2, Ops: 2}).CheckLockFreeAbstractContext(context.Background(), a.Build(cfg), a.Abstract(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Bisimilar {
			t.Errorf("%s: not ≈div its abstract program", id)
		}
		if !res.LockFree {
			t.Errorf("%s: abstract program not lock-free", id)
		}
		if res.AbstractStates >= res.ImplStates {
			t.Errorf("%s: abstraction (%d states) not smaller than object (%d)", id, res.AbstractStates, res.ImplStates)
		}
	}
}

// TestMSAndDGLMShareQuotient checks the Table VI observation that the MS
// and DGLM queues — and their shared abstract queue — all have the same
// branching-bisimulation quotient.
func TestMSAndDGLMShareQuotient(t *testing.T) {
	cfg := Config{Threads: 2, Ops: 2}
	ccfg := core.Config{Threads: 2, Ops: 2}
	ms, err := ByID("ms-queue")
	if err != nil {
		t.Fatal(err)
	}
	dglm, err := ByID("dglm-queue")
	if err != nil {
		t.Fatal(err)
	}
	rMS, err := core.NewSession(ccfg).CheckLinearizabilityContext(context.Background(), ms.Build(cfg), ms.Spec(cfg))
	if err != nil {
		t.Fatal(err)
	}
	rDGLM, err := core.NewSession(ccfg).CheckLinearizabilityContext(context.Background(), dglm.Build(cfg), dglm.Spec(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if rMS.ImplQuotientStates != rDGLM.ImplQuotientStates {
		t.Errorf("MS quotient %d != DGLM quotient %d", rMS.ImplQuotientStates, rDGLM.ImplQuotientStates)
	}
	if rDGLM.ImplStates >= rMS.ImplStates {
		t.Errorf("DGLM (%d states) should be smaller than MS (%d): it is the optimized variant", rDGLM.ImplStates, rMS.ImplStates)
	}
}

// TestHPStackReusesMemory checks that the hazard-pointer model really
// exercises reclamation: some execution frees and reuses a heap cell.
// We detect reuse indirectly: with explicit Free, the correct HP stack
// must stay linearizable (reuse is safe under validation) while its
// state space differs from plain Treiber's.
func TestHPStackReusesMemory(t *testing.T) {
	cfg := Config{Threads: 2, Ops: 2}
	acts := lts.NewAlphabet()
	labels := lts.NewAlphabet()
	treiber, err := ByID("treiber")
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := machine.ExploreWithInfoContext(context.Background(), treiber.Build(cfg), machine.Options{Threads: 2, Ops: 2, Acts: acts, Labels: labels})
	if err != nil {
		t.Fatal(err)
	}
	hpAlg, err := ByID("treiber-hp")
	if err != nil {
		t.Fatal(err)
	}
	hp, _, err := machine.ExploreWithInfoContext(context.Background(), hpAlg.Build(cfg), machine.Options{Threads: 2, Ops: 2, Acts: acts, Labels: labels})
	if err != nil {
		t.Fatal(err)
	}
	if hp.NumStates() <= plain.NumStates() {
		t.Errorf("HP stack (%d states) should be larger than plain Treiber (%d)", hp.NumStates(), plain.NumStates())
	}
}

// TestABAExtension checks the packaged ABA demonstration: immediate
// unsafe reclamation breaks linearizability (at 2 threads × 3 ops, where
// a stale snapshot can survive a free/realloc cycle) while remaining
// lock-free.
func TestABAExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	a, err := ByID("treiber-unsafe-free")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Extension {
		t.Fatal("treiber-unsafe-free must be marked as an extension")
	}
	cfg := Config{Threads: 2, Ops: 3}
	ccfg := core.Config{Threads: 2, Ops: 3}
	lin, err := core.NewSession(ccfg).CheckLinearizabilityContext(context.Background(), a.Build(cfg), a.Spec(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if lin.Linearizable {
		t.Fatal("unsafe reclamation must break linearizability (ABA)")
	}
	lf, err := core.NewSession(ccfg).CheckLockFreeAutoContext(context.Background(), a.Build(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !lf.LockFree {
		t.Fatal("the ABA variant stays lock-free")
	}
}

// TestLockBasedListsDeadlockFree checks the sanity property for the
// bottom half of Table II: the lock-based lists acquire locks in list
// order (or hand over hand), so no reachable state blocks every thread.
func TestLockBasedListsDeadlockFree(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	cfg := Config{Threads: 2, Ops: 2}
	for _, a := range All() {
		if !a.LockBased {
			continue
		}
		res, err := core.NewSession(core.Config{Threads: 2, Ops: 2}).CheckDeadlockFreeContext(context.Background(), a.Build(cfg))
		if err != nil {
			t.Fatalf("%s: %v", a.ID, err)
		}
		if !res.DeadlockFree {
			t.Errorf("%s deadlocks:\n%s", a.ID, res.Witness.Format())
		}
	}
}

// TestExtensionVerdicts verifies the packaged extension algorithms at
// 2 threads × 2 ops: the two-lock queue, coarse list and spin-lock stack
// are linearizable and deadlock-free; Harris's list and the version-tagged
// Treiber stack are linearizable and lock-free (the latter despite
// explicit reuse).
func TestExtensionVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	cfg := Config{Threads: 2, Ops: 2}
	ccfg := core.Config{Threads: 2, Ops: 2}
	for _, id := range []string{"two-lock-queue", "coarse-list", "harris-list", "treiber-versioned", "spinlock-stack"} {
		a, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		lin, err := core.NewSession(ccfg).CheckLinearizabilityContext(context.Background(), a.Build(cfg), a.Spec(cfg))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if lin.Linearizable != a.ExpectLinearizable {
			t.Errorf("%s: linearizable = %v, want %v", id, lin.Linearizable, a.ExpectLinearizable)
		}
		if a.LockBased {
			dl, err := core.NewSession(ccfg).CheckDeadlockFreeContext(context.Background(), a.Build(cfg))
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if !dl.DeadlockFree {
				t.Errorf("%s deadlocks:\n%s", id, dl.Witness.Format())
			}
			continue
		}
		lf, err := core.NewSession(ccfg).CheckLockFreeAutoContext(context.Background(), a.Build(cfg))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if lf.LockFree != a.ExpectLockFree {
			t.Errorf("%s: lock-free = %v, want %v", id, lf.LockFree, a.ExpectLockFree)
		}
	}
}

// TestVersionedStackDefeatsABA contrasts the two reclamation extensions
// at the instance where the unsafe variant breaks: with version tags the
// same free/reuse pattern stays linearizable.
func TestVersionedStackDefeatsABA(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	cfg := Config{Threads: 2, Ops: 3}
	ccfg := core.Config{Threads: 2, Ops: 3}
	unsafeAlg, err := ByID("treiber-unsafe-free")
	if err != nil {
		t.Fatal(err)
	}
	versioned, err := ByID("treiber-versioned")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := core.NewSession(ccfg).CheckLinearizabilityContext(context.Background(), unsafeAlg.Build(cfg), unsafeAlg.Spec(cfg))
	if err != nil {
		t.Fatal(err)
	}
	good, err := core.NewSession(ccfg).CheckLinearizabilityContext(context.Background(), versioned.Build(cfg), versioned.Spec(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if bad.Linearizable {
		t.Error("unsafe free must exhibit ABA at 2x3")
	}
	if !good.Linearizable {
		t.Error("versioned CAS must defeat ABA at 2x3")
	}
}

// TestHarrisListBatchSnip checks the distinguishing feature of Harris's
// list against Harris–Michael: both are linearizable and lock-free here,
// and Harris's search may unlink several marked nodes with one CAS —
// observable as a smaller or equal count of physical-removal steps. We
// settle for verifying both lists agree on all verdicts.
func TestHarrisListBatchSnip(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	cfg := Config{Threads: 2, Ops: 3}
	ccfg := core.Config{Threads: 2, Ops: 3}
	for _, id := range []string{"harris-list", "hm-list"} {
		a, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		lin, err := core.NewSession(ccfg).CheckLinearizabilityContext(context.Background(), a.Build(cfg), a.Spec(cfg))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !lin.Linearizable {
			t.Errorf("%s: not linearizable at 2x3: %v", id, lin.Counterexample.Trace)
		}
		lf, err := core.NewSession(ccfg).CheckLockFreeAutoContext(context.Background(), a.Build(cfg))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !lf.LockFree {
			t.Errorf("%s: not lock-free at 2x3", id)
		}
	}
}

// TestTheorem53QuotientSoundness checks Theorems 5.2/5.3 empirically on
// real objects: trace refinement decided on the full systems agrees with
// trace refinement decided on the branching-bisimulation quotients, for
// both a correct and a buggy algorithm.
func TestTheorem53QuotientSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	for _, id := range []string{"treiber", "hm-list-buggy", "newcas"} {
		a, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Threads: 2, Ops: 2}
		acts := lts.NewAlphabet()
		labels := lts.NewAlphabet()
		opts := machine.Options{Threads: 2, Ops: 2, Acts: acts, Labels: labels}
		impl, _, err := machine.ExploreWithInfoContext(context.Background(), a.Build(cfg), opts)
		if err != nil {
			t.Fatal(err)
		}
		specLTS, _, err := machine.ExploreWithInfoContext(context.Background(), a.Spec(cfg), opts)
		if err != nil {
			t.Fatal(err)
		}
		full, err := refine.TraceInclusion(impl, specLTS)
		if err != nil {
			t.Fatal(err)
		}
		implQ, _, _ := bisim.ReduceBranchingContext(context.Background(), impl)
		specQ, _, _ := bisim.ReduceBranchingContext(context.Background(), specLTS)
		quot, err := refine.TraceInclusion(implQ, specQ)
		if err != nil {
			t.Fatal(err)
		}
		if full.Included != quot.Included {
			t.Errorf("%s: full-system refinement %v but quotient refinement %v", id, full.Included, quot.Included)
		}
		if full.Included != a.ExpectLinearizable {
			t.Errorf("%s: refinement %v, expected linearizable=%v", id, full.Included, a.ExpectLinearizable)
		}
		// Counterexamples from the quotient must replay on the full system
		// and be rejected by the full specification.
		if !quot.Included {
			if !lts.HasTrace(impl, quot.Counterexample.Trace) {
				t.Errorf("%s: quotient counterexample does not replay on the object", id)
			}
			if lts.HasTrace(specLTS, quot.Counterexample.Trace) {
				t.Errorf("%s: quotient counterexample is allowed by the specification", id)
			}
		}
	}
}

// TestConcurrentBuild builds every row from many goroutines at once, as
// concurrent bbvd jobs do: the embedded models compile once, on first
// use, and their compiled templates are shared read-only.
func TestConcurrentBuild(t *testing.T) {
	cfg := Config{Threads: 2, Ops: 2}
	var wg sync.WaitGroup
	for range 8 {
		for _, id := range []string{"treiber", "ms-queue", "dglm-queue", "spinlock-stack", "hm-list"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a, err := ByID(id)
				if err != nil {
					t.Error(err)
					return
				}
				if err := a.Build(cfg).Validate(); err != nil {
					t.Errorf("%s: %v", id, err)
				}
				if a.Abstract != nil {
					if err := a.Abstract(cfg).Validate(); err != nil {
						t.Errorf("%s abstract: %v", id, err)
					}
				}
			}()
		}
	}
	wg.Wait()
}

// TestEmbeddedRowsMatchModels holds the rows compiled from examples/bbvl
// to their models: LockBased is the model's lockbased line, an abstract
// program is present exactly when the model declares one (dglm-queue
// borrows the MS queue's), and every statement carries the IR and the
// source position of the .bbvl file.
func TestEmbeddedRowsMatchModels(t *testing.T) {
	cfg := Config{Threads: 2, Ops: 2}
	for id, model := range map[string]embeddedModel{
		"treiber":           treiberModel,
		"ms-queue":          msQueueModel,
		"dglm-queue":        dglmQueueModel,
		"spinlock-stack":    spinLockStackModel,
		"lazy-list":         lazyListModel,
		"optimistic-list":   optimisticListModel,
		"fine-grained-list": fineGrainedListModel,
		"two-lock-queue":    twoLockQueueModel,
		"coarse-list":       coarseListModel,
	} {
		a, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		m := model()
		if a.LockBased != m.LockBased {
			t.Errorf("%s: LockBased = %v, the model says %v", id, a.LockBased, m.LockBased)
		}
		if hasAbs := m.HasAbstract || id == "dglm-queue"; (a.Abstract != nil) != hasAbs {
			t.Errorf("%s: abstract program present = %v, want %v", id, a.Abstract != nil, hasAbs)
		}
		for _, meth := range a.Build(cfg).Methods {
			for _, st := range meth.Body {
				if st.IR == nil || !strings.HasPrefix(st.Pos.File, "examples/bbvl/") {
					t.Errorf("%s %s.%s: IR %v at %q, want IR from examples/bbvl", id, meth.Name, st.Label, st.IR != nil, st.Pos.File)
				}
			}
		}
	}
}
