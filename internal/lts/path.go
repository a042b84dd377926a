package lts

import (
	"fmt"
	"slices"
	"strings"
)

// Step is one transition on a diagnostic path.
type Step struct {
	From   int32
	Action ActionID
	Label  LabelID
	To     int32
}

// Path is a sequence of consecutive transitions, used for counterexamples
// and divergence diagnostics.
type Path struct {
	L     *LTS
	Steps []Step
	// Cycle, if non-negative, is the index into Steps at which a lasso
	// cycle starts: Steps[Cycle:] loops back to Steps[Cycle].From.
	Cycle int
}

// Format renders the path one step per line, CADP-diagnostic style.
func (p *Path) Format() string {
	var sb strings.Builder
	sb.WriteString("<initial state>\n")
	for i, st := range p.Steps {
		if p.Cycle >= 0 && i == p.Cycle {
			sb.WriteString("-- cycle starts here (divergence) --\n")
		}
		name := p.L.Acts.Name(st.Action)
		if lbl := p.L.LabelName(st.Label); lbl != "" {
			fmt.Fprintf(&sb, "%q  [%s]\n", name, lbl)
		} else {
			fmt.Fprintf(&sb, "%q\n", name)
		}
	}
	if p.Cycle >= 0 {
		sb.WriteString("-- loop (divergence) --\n")
	}
	return sb.String()
}

// Trace returns the visible actions along the path, in order.
func (p *Path) Trace() []string {
	var out []string
	for _, st := range p.Steps {
		if !IsTau(st.Action) {
			out = append(out, p.L.Acts.Name(st.Action))
		}
	}
	return out
}

// ShortestPathTo returns a path from the initial state to any state
// satisfying goal, found by BFS, or ok=false if none is reachable.
func ShortestPathTo(l *LTS, goal func(int32) bool) (*Path, bool) {
	type pred struct {
		prev int32
		step Step
	}
	preds := make(map[int32]pred, 64)
	seen := make([]bool, l.NumStates())
	queue := []int32{l.Init}
	seen[l.Init] = true
	var target int32 = -1
	if goal(l.Init) {
		target = l.Init
	}
	for target < 0 && len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, t := range l.Succ(s) {
			if seen[t.Dst] {
				continue
			}
			seen[t.Dst] = true
			preds[t.Dst] = pred{prev: s, step: Step{From: s, Action: t.Action, Label: t.Label, To: t.Dst}}
			if goal(t.Dst) {
				target = t.Dst
				break
			}
			queue = append(queue, t.Dst)
		}
	}
	if target < 0 {
		return nil, false
	}
	var rev []Step
	for s := target; s != l.Init; {
		p := preds[s]
		rev = append(rev, p.step)
		s = p.prev
	}
	steps := make([]Step, len(rev))
	for i := range rev {
		steps[i] = rev[len(rev)-1-i]
	}
	return &Path{L: l, Steps: steps, Cycle: -1}, true
}

// DivergencePath returns a lasso path witnessing a reachable τ-cycle: a
// shortest path from the initial state to a state on a τ-cycle, followed
// by the τ-cycle itself. ok is false when the system has no reachable
// τ-cycle (i.e. it is divergence-free).
func DivergencePath(l *LTS) (*Path, bool) {
	scc := TauSCCs(l)
	if !slices.Contains(scc.Divergent, true) {
		return nil, false // no τ-cycle anywhere: skip the search
	}
	onCycle := func(s int32) bool { return scc.Divergent[scc.Comp[s]] }
	prefix, ok := ShortestPathTo(l, onCycle)
	if !ok {
		return nil, false
	}
	start := l.Init
	if len(prefix.Steps) > 0 {
		start = prefix.Steps[len(prefix.Steps)-1].To
	}
	cycle := tauCycleFrom(l, scc, start)
	prefix.Cycle = len(prefix.Steps)
	prefix.Steps = append(prefix.Steps, cycle...)
	return prefix, true
}

// tauCycleFrom returns a τ-cycle through start, which must lie in a
// divergent τ-SCC: BFS within the component back to start.
func tauCycleFrom(l *LTS, scc *TauSCC, start int32) []Step {
	comp := scc.Comp[start]
	// Self-loop fast path.
	for _, t := range l.Succ(start) {
		if IsTau(t.Action) && t.Dst == start {
			return []Step{{From: start, Action: t.Action, Label: t.Label, To: start}}
		}
	}
	type pred struct {
		prev int32
		step Step
	}
	preds := make(map[int32]pred)
	seen := map[int32]bool{start: true}
	queue := []int32{start}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, t := range l.Succ(s) {
			if !IsTau(t.Action) || scc.Comp[t.Dst] != comp {
				continue
			}
			if t.Dst == start {
				var rev []Step
				rev = append(rev, Step{From: s, Action: t.Action, Label: t.Label, To: start})
				for u := s; u != start; {
					p := preds[u]
					rev = append(rev, p.step)
					u = p.prev
				}
				steps := make([]Step, len(rev))
				for i := range rev {
					steps[i] = rev[len(rev)-1-i]
				}
				return steps
			}
			if !seen[t.Dst] {
				seen[t.Dst] = true
				preds[t.Dst] = pred{prev: s, step: Step{From: s, Action: t.Action, Label: t.Label, To: t.Dst}}
				queue = append(queue, t.Dst)
			}
		}
	}
	return nil // unreachable for a well-formed divergent SCC
}
