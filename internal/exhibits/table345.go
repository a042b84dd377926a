package exhibits

import (
	"context"
	"fmt"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
)

// instance is one #Th-#Op row of a sweep.
type instance struct{ threads, ops int }

// String renders the paper's #Th-#Op instance notation.
func (i instance) String() string { return fmt.Sprintf("%d-%d", i.threads, i.ops) }

// lockFreeSweep runs the automatic Theorem 5.9 lock-freedom check over a
// list of instances, producing the Δ / Δ/≈ / verdict / time columns of
// Tables III–V. The time is one fresh session's explore + quotient +
// τ-cycle pass.
func lockFreeSweep(title string, alg *algorithms.Algorithm, rows []instance, vals []int32, opt Options) (*Table, error) {
	ctx := context.Background()
	t := &Table{
		Title:   title,
		Columns: []string{"#Th-#Op", "states", "quotient", "lock-free (Thm 5.9)", "time (s)"},
	}
	for _, in := range rows {
		cfg := algorithms.Config{Threads: in.threads, Ops: in.ops, Vals: vals}
		start := time.Now()
		sess := core.NewSession(opt.coreConfig(in.threads, in.ops))
		res, err := sess.CheckLockFreeAutoContext(ctx, alg.Build(cfg))
		t.Stages = append(t.Stages, sess.Stats()...)
		if err != nil {
			if isStateLimit(err) {
				t.Add(in.String(), capped, "-", "-", "-")
				continue
			}
			return nil, fmt.Errorf("%s %s: %w", alg.ID, in, err)
		}
		verdict := "Yes"
		if !res.LockFree {
			verdict = "No"
		}
		t.Add(in.String(), res.ImplStates, res.AbstractStates, verdict, secs(time.Since(start)))
		if !res.LockFree && len(t.Notes) == 0 {
			t.Note("Divergence diagnostic (%s):\n%s", in, res.Divergence.Format())
		}
	}
	return t, nil
}

// Table3 reproduces Table III: automatic lock-freedom checking of the MS
// queue across thread/operation bounds (single-value universe).
func Table3(opt Options) (*Table, error) {
	rows := []instance{{2, 3}, {2, 4}, {2, 5}, {2, 6}, {3, 1}, {3, 2}, {3, 3}}
	if opt.Quick {
		rows = []instance{{2, 2}, {2, 3}, {3, 1}}
	}
	return lockFreeSweep(
		"Table III: automatically checking lock-freedom of the MS queue (values {1})",
		mustAlg("ms-queue"), rows, oneVal, opt)
}

// Table4 reproduces Table IV: automatic lock-freedom checking of the HM
// list (two-key universe, as the operations are Add/Remove over keys).
func Table4(opt Options) (*Table, error) {
	rows := []instance{{2, 2}, {2, 3}, {2, 4}, {2, 5}, {3, 1}}
	if opt.Quick {
		rows = []instance{{2, 2}, {3, 1}}
	}
	return lockFreeSweep(
		"Table IV: automatically checking lock-freedom of the HM list (keys {1,2})",
		mustAlg("hm-list"), rows, nil, opt)
}

// Table5 reproduces Table V: the HW queue fails lock-freedom at 3
// threads × 1 op, with the divergence diagnostic of Fig. 9 (one thread's
// dequeue rescanning an empty array forever).
func Table5(opt Options) (*Table, error) {
	t, err := lockFreeSweep(
		"Table V: checking lock-freedom of the HW queue",
		mustAlg("hw-queue"), []instance{{3, 1}}, nil, opt)
	if err != nil {
		return nil, err
	}
	t.Title = "Table V / Fig. 9: checking lock-freedom of the HW queue"
	return t, nil
}
