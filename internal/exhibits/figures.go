package exhibits

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/algorithms"
	"repro/internal/bisim"
	"repro/internal/core"
	"repro/internal/ktrace"
	"repro/internal/lts"
)

// Fig6 reproduces the analysis of Fig. 6: in the MS queue with 2 threads
// (the paper uses 5 operations each), there is an internal step — the
// successful L28 CAS of a dequeue racing a restarted empty-check — whose
// endpoints are 1-trace equivalent yet 2-trace inequivalent. The exhibit
// sweeps the operation bound until the step appears and names it.
func Fig6(opt Options) (*Table, error) {
	t := &Table{
		Title:   "Fig. 6: the MS queue's trace-invisible linearization point (2 threads, values {1})",
		Columns: []string{"#Op", "states", "quotient", "hierarchy cap", "eq1-and-neq2 step"},
	}
	a := mustAlg("ms-queue")
	maxOps := 5
	if opt.Quick {
		maxOps = 3
	}
	for ops := 2; ops <= maxOps; ops++ {
		cfg := algorithms.Config{Threads: 2, Ops: ops, Vals: oneVal}
		l, wasCapped, err := explore(a.Build(cfg), 2, ops, opt, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("fig6: %w", err)
		}
		if wasCapped {
			t.Add(ops, capped, "-", "-", "-")
			break
		}
		q := quotientOf(l)
		an := ktrace.Analyze(q, 5)
		cls := ktrace.Classify(q, an)
		step := ""
		if cls.Eq1Neq2 != nil {
			step = q.LabelName(cls.Eq1Neq2.Label)
		}
		t.Add(ops, l.NumStates(), q.NumStates(), an.Cap, step)
		if cls.Eq1Neq2 != nil {
			t.Note("As in Fig. 6, the step is a dequeue's successful head-swing CAS (line 28 of Fig. 5): trace equivalence cannot see its effect, the 2-trace level can.")
			break
		}
	}
	return t, nil
}

// Fig7 reproduces the analysis of Section VI.D.1 and Fig. 7: the MS
// queue's quotient retains only the internal steps that take effect
// (lines 8, 20, 21, 28 of Fig. 5 — the enqueue LP, the empty-read, its
// validation, and the dequeue LP), and the queue is not branching
// bisimilar to its single-atomic-block specification because of the
// non-fixed LP interleaving of lines 20/28 — witnessed by a quotient
// path executing L20 before the racing L28.
func Fig7(opt Options) (*Table, error) {
	ctx := context.Background()
	ops := 3
	if opt.Quick {
		ops = 2
	}
	t := &Table{
		Title:   fmt.Sprintf("Fig. 7 / Sec. VI.D.1: essential internal steps of the MS queue quotient (2 threads x %d ops, values {1})", ops),
		Columns: []string{"internal step (line)", "quotient transitions"},
	}
	a := mustAlg("ms-queue")
	cfg := algorithms.Config{Threads: 2, Ops: ops, Vals: oneVal}
	sess := core.NewSession(opt.coreConfig(2, ops))
	l, _, err := sess.ExploreWithInfoContext(ctx, a.Build(cfg))
	if err != nil {
		if isStateLimit(err) {
			return nil, fmt.Errorf("fig7: instance exceeded the state budget")
		}
		return nil, fmt.Errorf("fig7: %w", err)
	}
	q, err := sess.QuotientContext(ctx, l)
	if err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
	}

	// Histogram of the τ labels that survive quotienting, with the
	// thread prefix stripped (t1.L28 -> L28).
	hist := map[string]int{}
	for s := int32(0); s < int32(q.NumStates()); s++ {
		for _, tr := range q.Succ(s) {
			if !lts.IsTau(tr.Action) {
				continue
			}
			name := q.LabelName(tr.Label)
			if i := len("tN."); len(name) > i {
				name = name[i:]
			}
			hist[name]++
		}
	}
	lines := make([]string, 0, len(hist))
	for name := range hist {
		lines = append(lines, name)
	}
	sort.Strings(lines)
	for _, name := range lines {
		t.Add(name, hist[name])
	}

	// The spec comparison: not branching bisimilar (the non-fixed LP).
	specLTS, _, err := sess.ExploreWithInfoContext(ctx, a.Spec(cfg))
	if err != nil {
		return nil, fmt.Errorf("fig7 spec: %w", err)
	}
	specQ, err := sess.QuotientContext(ctx, specLTS)
	if err != nil {
		return nil, fmt.Errorf("fig7 spec: %w", err)
	}
	eq, err := sess.EquivalentContext(ctx, q, specQ, bisim.KindBranching)
	if err != nil {
		return nil, err
	}
	t.Note("MS queue ~br specification: %v (the single-atomic-block spec cannot match the L20/L28 race).", eq)
	exp, bad, err := sess.ExplainContext(ctx, q, specQ, bisim.KindBranching)
	if err != nil {
		return nil, fmt.Errorf("fig7 explain: %w", err)
	}
	if bad {
		t.Note("Why (shortest distinguishing experiment):\n%s", exp.Format())
	}

	// A diagnostic path through the quotient executing the empty-read
	// (L20) of one thread and then the head-swing CAS (L28) of the other:
	// the interleaving behind Fig. 7.
	if path, ok := diagnosticL20L28(q); ok {
		t.Note("Diagnostic interleaving (quotient path, Fig. 7 shape):\n%s", path.Format())
	}
	t.Stages = append(t.Stages, sess.Stats()...)
	return t, nil
}

// diagnosticL20L28 finds a shortest quotient path containing a τ step
// labeled L20 of one thread followed by a τ step labeled L28 of another.
func diagnosticL20L28(q *lts.LTS) (*lts.Path, bool) {
	labelOf := func(tr lts.Transition) string { return q.LabelName(tr.Label) }
	// BFS over (state, phase) where phase 0 = waiting for t2.L20,
	// phase 1 = waiting for t1.L28, phase 2 = done.
	type node struct {
		s     int32
		phase int8
	}
	type pre struct {
		prev node
		step lts.Step
	}
	start := node{s: q.Init}
	preds := map[node]pre{start: {}}
	queue := []node{start}
	var goal *node
	for len(queue) > 0 && goal == nil {
		n := queue[0]
		queue = queue[1:]
		for _, tr := range q.Succ(n.s) {
			next := node{s: tr.Dst, phase: n.phase}
			if lts.IsTau(tr.Action) {
				switch lbl := labelOf(tr); {
				case n.phase == 0 && lbl == "t2.L20":
					next.phase = 1
				case n.phase == 1 && lbl == "t1.L28":
					next.phase = 2
				}
			}
			if _, seen := preds[next]; seen {
				continue
			}
			preds[next] = pre{prev: n, step: lts.Step{From: n.s, Action: tr.Action, Label: tr.Label, To: tr.Dst}}
			if next.phase == 2 {
				goal = &next
				break
			}
			queue = append(queue, next)
		}
	}
	if goal == nil {
		return nil, false
	}
	var rev []lts.Step
	for n := *goal; n != start; n = preds[n].prev {
		rev = append(rev, preds[n].step)
	}
	steps := make([]lts.Step, len(rev))
	for i := range rev {
		steps[i] = rev[len(rev)-1-i]
	}
	return &lts.Path{L: q, Steps: steps, Cycle: -1}, true
}

// fig10Algorithms are the 11 non-blocking objects of Fig. 10.
var fig10Algorithms = []string{
	"treiber", "treiber-hp", "treiber-hp-fu", "ms-queue", "dglm-queue",
	"ccas", "rdcss", "newcas", "hm-list", "hw-queue", "hsy-stack",
}

// Fig10 reproduces Fig. 10: state-space reduction by ≈-quotienting with
// 2 threads and 1..10 operations per thread. For each algorithm and
// operation bound it reports |Δ|, |Δ/≈| and the reduction factor; the
// sweep stops when an instance exceeds the state budget.
func Fig10(opt Options) (*Table, error) {
	t := &Table{
		Title:   "Fig. 10: state-space reduction using ~br-quotienting (2 threads, values {1})",
		Columns: []string{"Object", "#Op", "states", "quotient", "reduction"},
	}
	maxOps := 10
	if opt.Quick {
		maxOps = 3
	}
	for _, id := range fig10Algorithms {
		a := mustAlg(id)
		for ops := 1; ops <= maxOps; ops++ {
			cfg := algorithms.Config{Threads: 2, Ops: ops, Vals: oneVal}
			l, wasCapped, err := explore(a.Build(cfg), 2, ops, opt, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("fig10 %s: %w", id, err)
			}
			if wasCapped {
				t.Add(a.Display, ops, capped, "-", "-")
				break
			}
			q := quotientOf(l)
			t.Add(a.Display, ops, l.NumStates(), q.NumStates(),
				fmt.Sprintf("%.1fx", float64(l.NumStates())/float64(q.NumStates())))
		}
	}
	t.Note("The reduction factor grows with the operation bound (2 to 3 orders of magnitude at depth), as in the paper.")
	return t, nil
}
