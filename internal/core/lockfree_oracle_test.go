package core_test

import (
	"context"
	"fmt"
	"testing"

	bbvlexamples "repro/examples/bbvl"
	"repro/internal/algorithms"
	"repro/internal/bbvl"
	"repro/internal/bisim"
	"repro/internal/core"
	"repro/internal/machine"
)

// TestLockFreeAutoMatchesDivBisim is the oracle for Theorem 5.9's
// shortcut: CheckLockFreeAutoContext decides Δ ≈div Δ/≈ by a τ-cycle
// pass over Δ (Lemma 5.7), and this test holds that verdict equal to
// the ≈div partition refinement of Δ ⊎ Δ/≈ on every registry row at 1×2
// and 2×2, the Table V hw-queue instance (3×1) and every lock-free
// example model at 2×2. It also pins that the check itself runs no
// equivalence stage.
func TestLockFreeAutoMatchesDivBisim(t *testing.T) {
	if testing.Short() {
		t.Skip("explores and refines the whole registry")
	}
	type entry struct {
		name string
		cfg  algorithms.Config
		impl func(algorithms.Config) *machine.Program
	}
	var corpus []entry
	for _, a := range algorithms.All() {
		for _, sz := range [][2]int{{1, 2}, {2, 2}} {
			corpus = append(corpus, entry{fmt.Sprintf("%s/%dx%d", a.ID, sz[0], sz[1]),
				algorithms.Config{Threads: sz[0], Ops: sz[1]}, a.Build})
		}
	}
	hw, err := algorithms.ByID("hw-queue")
	if err != nil {
		t.Fatal(err)
	}
	corpus = append(corpus, entry{"hw-queue/3x1", algorithms.Config{Threads: 3, Ops: 1}, hw.Build})
	for _, name := range bbvlexamples.Names() {
		src, err := bbvlexamples.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := bbvl.Load(bbvlexamples.Filename(name), src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !m.LockBased {
			corpus = append(corpus, entry{"model:" + name + "/2x2", algorithms.Config{Threads: 2, Ops: 2}, m.Build})
		}
	}

	ctx := context.Background()
	var cyclic, acyclic int
	for _, e := range corpus {
		t.Run(e.name, func(t *testing.T) {
			sess := core.NewSession(core.Config{Threads: e.cfg.Threads, Ops: e.cfg.Ops})
			impl := e.impl(e.cfg)
			res, err := sess.CheckLockFreeAutoContext(ctx, impl)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range res.Stages {
				if st.Stage == core.StageEquivalence {
					t.Errorf("Thm 5.9 check ran an equivalence stage: %+v", st)
				}
			}
			l, _, err := sess.ExploreWithInfoContext(ctx, impl)
			if err != nil {
				t.Fatal(err)
			}
			q, err := sess.QuotientContext(ctx, l)
			if err != nil {
				t.Fatal(err)
			}
			div, err := sess.EquivalentContext(ctx, l, q, bisim.KindDivBranching)
			if err != nil {
				t.Fatal(err)
			}
			if res.LockFree != div || res.Bisimilar != div {
				t.Fatalf("τ-cycle verdict lock-free=%v bisimilar=%v, Δ ≈div Δ/≈ = %v", res.LockFree, res.Bisimilar, div)
			}
			if (res.Divergence == nil) != div {
				t.Errorf("divergence witness %v for ≈div verdict %v", res.Divergence, div)
			}
			if div {
				acyclic++
			} else {
				cyclic++
			}
		})
	}
	t.Logf("%d cyclic and %d acyclic entries agree", cyclic, acyclic)
	if cyclic == 0 || acyclic == 0 {
		t.Errorf("corpus has %d cyclic and %d acyclic entries; the oracle needs both", cyclic, acyclic)
	}
}
