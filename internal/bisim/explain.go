package bisim

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/lts"
)

// Explanation describes why two systems are not branching bisimilar: a
// shortest distinguishing experiment, extracted from the splitting tree
// of the refinement (see splitterOnDAG). Each step is an action one side
// (the leader) performs that the other side cannot fully match; the last
// step is an action — or a divergence — only one side can exhibit at all,
// which is directly checkable on the two systems (Verify replays it).
type Explanation struct {
	// Kind is the bisimulation notion explained (branching or
	// divergence-sensitive branching).
	Kind Kind
	// Round is the refinement round (1-based) at which the initial
	// states separated. No experiment shorter than Round steps can
	// distinguish the systems under inert-respecting play, and
	// len(Experiment) never exceeds Round.
	Round int
	// Experiment is the distinguishing experiment, mapped back through
	// the τ-SCC collapse to concrete states of the two input systems.
	Experiment []ExperimentStep
}

// side names the systems in rendered steps.
func side(left bool) string {
	if left {
		return "left"
	}
	return "right"
}

// renderWalk renders an ExperimentPath as "s0 -a-> s1 -tau-> s2".
func renderWalk(p ExperimentPath) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "s%d", p.States[0])
	for i, mv := range p.Moves {
		fmt.Fprintf(&sb, " -%s-> s%d", mv, p.States[i+1])
	}
	return sb.String()
}

// String renders one experiment step as a single line.
func (st *ExperimentStep) String() string {
	leader, follower := st.Left, st.Right
	if !st.LeftLeads {
		leader, follower = st.Right, st.Left
	}
	lead, foll := side(st.LeftLeads), side(!st.LeftLeads)
	switch {
	case st.Final && st.Divergence:
		return fmt.Sprintf("only the %s can diverge (an infinite run of internal steps): %s; the %s (at s%d) cannot",
			lead, renderWalk(leader), foll, follower.States[0])
	case st.Final:
		return fmt.Sprintf("only the %s can perform %s (after internal steps): %s; the %s (at s%d) cannot",
			lead, st.Action, renderWalk(leader), foll, follower.States[0])
	case st.Challenge:
		return fmt.Sprintf("the %s proposes %s; the %s can only reach it after an internal step that leaves the current class: %s; the experiment continues against that intermediate",
			lead, st.Action, foll, renderWalk(follower))
	default:
		followed := fmt.Sprintf("the %s follows: %s", foll, renderWalk(follower))
		if len(follower.Moves) == 0 {
			followed = fmt.Sprintf("the %s stays at s%d", foll, follower.States[0])
		}
		return fmt.Sprintf("the %s performs %s: %s; %s", lead, st.Action, renderWalk(leader), followed)
	}
}

// StepStrings renders each experiment step on one line, in order.
func (e *Explanation) StepStrings() []string {
	out := make([]string, len(e.Experiment))
	for i := range e.Experiment {
		out[i] = e.Experiment[i].String()
	}
	return out
}

// Format renders the explanation.
func (e *Explanation) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "not %v bisimilar: the initial states separate at refinement round %d\n", e.Kind, e.Round)
	fmt.Fprintf(&sb, "shortest distinguishing experiment (%d steps):\n", len(e.Experiment))
	for i, line := range e.StepStrings() {
		fmt.Fprintf(&sb, "  %d. %s\n", i+1, line)
	}
	return sb.String()
}

// ExplainContext diagnoses why a and b are not bisimilar under branching
// or divergence-sensitive branching bisimulation, returning a shortest
// distinguishing experiment. It returns ok=false (and a nil explanation)
// when the systems are in fact bisimilar. Only KindBranching and
// KindDivBranching are supported. The result is deterministic in the two
// input LTSs; the underlying refinement polls ctx once per round.
func ExplainContext(ctx context.Context, a, b *lts.LTS, k Kind) (*Explanation, bool, error) {
	if k != KindBranching && k != KindDivBranching {
		return nil, false, fmt.Errorf("bisim: Explain supports branching kinds, not %v", k)
	}
	u, initB, err := lts.DisjointUnion(a, b)
	if err != nil {
		return nil, false, err
	}
	c := collapse(u, k == KindDivBranching)
	_, tree, err := splitterOnDAG(ctx, c.l, c.divergent)
	if err != nil {
		return nil, false, err
	}
	cu, cv := c.stateOf[u.Init], c.stateOf[initB]
	if tree.label[cu] == tree.label[cv] {
		return nil, false, nil // bisimilar
	}
	w := &witnessExtractor{u: u, c: c.l, stateOf: c.stateOf, t: tree, shift: int32(a.NumStates())}
	return &Explanation{
		Kind:       k,
		Round:      int(tree.sepRound(cu, cv)),
		Experiment: w.experiment(u.Init, initB),
	}, true, nil
}
