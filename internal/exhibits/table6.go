package exhibits

import (
	"context"
	"fmt"
	"time"

	"repro/internal/algorithms"
	"repro/internal/bisim"
	"repro/internal/core"
	"repro/internal/lts"
)

// Table6 reproduces Table VI: verifying linearizability and lock-freedom
// of the MS and DGLM queues. For each #Th-#Op instance it reports the
// state spaces of both queues, their shared specification Θsp and
// abstract object Δabs, the quotients, the Theorem 5.8 lock-freedom
// check (object ≈div abstract object) and the Theorem 5.3 linearizability
// check (quotient trace refinement), with times.
//
// A single artifact session per instance shares the alphabets across the
// four explorations and serves every quotient and equivalence from the
// memo, so each LTS is explored and reduced exactly once even though the
// 5.8 and 5.3 columns both consume them.
func Table6(opt Options) (*Table, error) {
	ctx := context.Background()
	t := &Table{
		Title: "Table VI: verifying linearizability and lock-freedom of concurrent queues (values {1})",
		Columns: []string{
			"#Th-#Op", "MS", "DGLM", "Spec", "Abs", "Spec/~", "Q/~",
			"5.8 MS(s)", "5.8 DGLM(s)", "5.8", "5.3 MS(s)", "5.3 DGLM(s)", "5.3",
		},
	}
	rows := []instance{{2, 1}, {2, 2}, {2, 3}, {2, 4}, {2, 5}, {2, 6}, {2, 7}, {3, 1}, {3, 2}, {3, 3}, {4, 1}}
	if opt.Quick {
		rows = []instance{{2, 1}, {2, 2}, {3, 1}}
	}
	ms := mustAlg("ms-queue")
	dglm := mustAlg("dglm-queue")
	for _, in := range rows {
		cfg := algorithms.Config{Threads: in.threads, Ops: in.ops, Vals: oneVal}
		sess := core.NewSession(opt.coreConfig(in.threads, in.ops))
		msLTS, _, err := sess.ExploreWithInfoContext(ctx, ms.Build(cfg))
		if err != nil {
			if isStateLimit(err) {
				t.Add(in.String(), capped, "-", "-", "-", "-", "-", "-", "-", "-", "-", "-", "-")
				continue
			}
			return nil, fmt.Errorf("table6 %s ms: %w", in, err)
		}
		dglmLTS, _, err := sess.ExploreWithInfoContext(ctx, dglm.Build(cfg))
		if err != nil {
			if isStateLimit(err) {
				t.Add(in.String(), msLTS.NumStates(), capped, "-", "-", "-", "-", "-", "-", "-", "-", "-", "-")
				continue
			}
			return nil, fmt.Errorf("table6 %s dglm: %w", in, err)
		}
		specLTS, _, err := sess.ExploreWithInfoContext(ctx, ms.Spec(cfg))
		if err != nil {
			return nil, fmt.Errorf("table6 %s spec: %w", in, err)
		}
		absLTS, _, err := sess.ExploreWithInfoContext(ctx, ms.Abstract(cfg))
		if err != nil {
			return nil, fmt.Errorf("table6 %s abs: %w", in, err)
		}

		// Theorem 5.8: object ≈div abstract object; the abstract object is
		// lock-free (divergence-free), so both queues are.
		t58 := func(obj *lts.LTS) (bool, time.Duration, error) {
			start := time.Now()
			eq, err := sess.EquivalentContext(ctx, obj, absLTS, bisim.KindDivBranching)
			if err != nil {
				return false, 0, err
			}
			if sess.TauCyclic(absLTS) {
				return false, time.Since(start), nil
			}
			return eq, time.Since(start), nil
		}
		msLF, msLFTime, err := t58(msLTS)
		if err != nil {
			return nil, err
		}
		dglmLF, dglmLFTime, err := t58(dglmLTS)
		if err != nil {
			return nil, err
		}

		// Theorem 5.3: quotient trace refinement against the spec quotient.
		specQ, err := sess.QuotientContext(ctx, specLTS)
		if err != nil {
			return nil, fmt.Errorf("table6 %s spec quotient: %w", in, err)
		}
		t53 := func(obj *lts.LTS) (bool, *lts.LTS, time.Duration, error) {
			start := time.Now()
			q, err := sess.QuotientContext(ctx, obj)
			if err != nil {
				return false, nil, 0, err
			}
			res, err := sess.TraceInclusion(q, specQ)
			if err != nil {
				return false, nil, 0, err
			}
			return res.Included, q, time.Since(start), nil
		}
		msLin, msQ, msLinTime, err := t53(msLTS)
		if err != nil {
			return nil, err
		}
		dglmLin, dglmQ, dglmLinTime, err := t53(dglmLTS)
		if err != nil {
			return nil, err
		}

		lfCell := verdictYes(msLF && dglmLF)
		linCell := verdictYes(msLin && dglmLin)
		t.Add(in.String(),
			msLTS.NumStates(), dglmLTS.NumStates(), specLTS.NumStates(), absLTS.NumStates(),
			specQ.NumStates(), sharedQuotientCell(msQ.NumStates(), dglmQ.NumStates()),
			secs(msLFTime), secs(dglmLFTime), lfCell,
			secs(msLinTime), secs(dglmLinTime), linCell,
		)
		t.Stages = append(t.Stages, sess.Stats()...)
	}
	t.Note("Q/~ is the shared branching-bisimulation quotient of the MS and DGLM queues (they coincide, as in the paper).")
	t.Note("Thm 5.8 column: both queues are divergence-sensitive branching bisimilar to the (lock-free) abstract queue of Fig. 8.")
	return t, nil
}

func verdictYes(b bool) string {
	if b {
		return "Yes"
	}
	return "No"
}

// sharedQuotientCell renders the quotient sizes of the two queues, which
// should coincide; a mismatch is made visible.
func sharedQuotientCell(msQ, dglmQ int) string {
	if msQ == dglmQ {
		return fmt.Sprint(msQ)
	}
	return fmt.Sprintf("%d/%d", msQ, dglmQ)
}
