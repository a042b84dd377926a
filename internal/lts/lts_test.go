package lts

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestAlphabetInterning(t *testing.T) {
	a := NewAlphabet()
	if got := a.ID(TauName); got != Tau {
		t.Fatalf("tau interned as %d, want %d", got, Tau)
	}
	x := a.ID("t1.call.Enq(1)")
	y := a.ID("t1.ret.Enq(ok)")
	if x == y || x == Tau || y == Tau {
		t.Fatalf("distinct names must get distinct non-tau ids: %d %d", x, y)
	}
	if a.ID("t1.call.Enq(1)") != x {
		t.Fatal("re-interning changed the id")
	}
	if a.Name(x) != "t1.call.Enq(1)" {
		t.Fatalf("Name(%d) = %q", x, a.Name(x))
	}
	if a.Len() != 3 {
		t.Fatalf("Len = %d, want 3", a.Len())
	}
	if _, ok := a.Lookup("missing"); ok {
		t.Fatal("Lookup found a missing name")
	}
}

func TestBuilderGroupsEdges(t *testing.T) {
	b := NewBuilder(nil)
	b.SetInit(0)
	b.Add(1, "a", 2)
	b.Add(0, TauName, 1)
	b.Add(0, "b", 2)
	b.Add(1, "a", 0)
	l := b.Build()
	if l.NumStates() != 3 || l.NumTransitions() != 4 {
		t.Fatalf("states=%d trans=%d", l.NumStates(), l.NumTransitions())
	}
	if len(l.Succ(0)) != 2 || len(l.Succ(1)) != 2 || len(l.Succ(2)) != 0 {
		t.Fatalf("succ sizes: %d %d %d", len(l.Succ(0)), len(l.Succ(1)), len(l.Succ(2)))
	}
	// Stable order of state 0's edges is insertion order.
	if !IsTau(l.Succ(0)[0].Action) {
		t.Fatal("first edge of state 0 should be tau")
	}
	if got := l.CountTau(); got != 1 {
		t.Fatalf("CountTau = %d", got)
	}
	if vis := l.VisibleActions(); len(vis) != 2 {
		t.Fatalf("VisibleActions = %v", vis)
	}
}

func TestCSRBuilderMatchesBuilder(t *testing.T) {
	acts := NewAlphabet()
	c := NewCSRBuilder(acts, nil)
	if err := c.BeginState(0); err != nil {
		t.Fatal(err)
	}
	c.Emit(acts.ID("a"), NoLabel, 1)
	c.Emit(Tau, NoLabel, 2)
	if err := c.BeginState(1); err != nil {
		t.Fatal(err)
	}
	c.Emit(acts.ID("b"), NoLabel, 2)
	l := c.Build(3, 0)
	if l.NumStates() != 3 || l.NumTransitions() != 3 {
		t.Fatalf("states=%d trans=%d", l.NumStates(), l.NumTransitions())
	}
	if len(l.Succ(2)) != 0 {
		t.Fatal("state 2 should be terminal")
	}
	if err := c.BeginState(5); err == nil {
		t.Fatal("out-of-order BeginState should fail")
	}
}

// TestCSRReserveGrowsGeometrically drives the parallel merge's pattern —
// Reserve one level, then EmitRow each of its states — over 250 growing
// levels. The edge array must be reallocated O(log n) times, not once
// per level, and EmitRow must never regrow what Reserve reserved.
func TestCSRReserveGrowsGeometrically(t *testing.T) {
	b := NewCSRBuilder(nil, nil)
	row := []Transition{{Action: Tau, Dst: 0}, {Action: Tau, Dst: 1}, {Action: Tau, Dst: 2}}
	reallocs, last := 0, cap(b.edges)
	s := int32(0)
	for level := 1; level <= 250; level++ {
		b.Reserve(level, len(row)*level)
		if c := cap(b.edges); c != last {
			reallocs++
			last = c
		}
		for i := 0; i < level; i++ {
			if err := b.EmitRow(s, row); err != nil {
				t.Fatal(err)
			}
			s++
		}
		if cap(b.edges) != last {
			t.Fatalf("level %d: EmitRow regrew the reserved edges", level)
		}
	}
	total := len(row) * int(s)
	if limit := bits.Len(uint(total)) + 1; reallocs > limit {
		t.Fatalf("%d edge reallocations for %d transitions over 250 levels, want at most %d", reallocs, total, limit)
	}
	l := b.Build(int(s), 0)
	if l.NumStates() != int(s) || l.NumTransitions() != total || len(l.Succ(s-1)) != len(row) {
		t.Fatalf("built %d states, %d transitions", l.NumStates(), l.NumTransitions())
	}
}

// TestCSRSegmentsKeepRowsWhole emits rows of 0 to 6 transitions past
// three segments' worth, through EmitRow and through BeginState and
// Emit. Rows are never split across segments, a segment is sealed only
// when the next row does not fit, every segment after the first holds
// csrSegment transitions, and Build returns every row in order in an
// edge array of exactly the emitted length.
func TestCSRSegmentsKeepRowsWhole(t *testing.T) {
	for _, bulk := range []bool{true, false} {
		b := NewCSRBuilder(nil, nil)
		var want [][]Transition
		for s := int32(0); b.numEdges() < 3*csrSegment+5; s++ {
			row := make([]Transition, s%7)
			for i := range row {
				row[i] = Transition{Action: Tau, Label: LabelID(i), Dst: s}
			}
			if bulk {
				b.Reserve(1, len(row))
				if err := b.EmitRow(s, row); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := b.BeginState(s); err != nil {
					t.Fatal(err)
				}
				for _, tr := range row {
					b.Emit(tr.Action, tr.Label, tr.Dst)
				}
				if !slices.Equal(b.row(), row) {
					t.Fatalf("Emit: row %d reads %v, want %v", s, b.row(), row)
				}
			}
			want = append(want, row)
		}
		if len(b.sealed) < 2 {
			t.Fatalf("bulk=%v: %d sealed segments for %d transitions", bulk, len(b.sealed), b.numEdges())
		}
		for i, seg := range b.sealed {
			if (i > 0 && cap(seg) != csrSegment) || len(seg) <= cap(seg)-7 {
				t.Fatalf("bulk=%v: segment %d holds %d transitions in a capacity of %d", bulk, i, len(seg), cap(seg))
			}
		}
		n := int(b.numEdges())
		l := b.Build(len(want), 0)
		if len(l.edges) != n || cap(l.edges) != n {
			t.Fatalf("bulk=%v: built %d transitions in a capacity of %d, want %d", bulk, len(l.edges), cap(l.edges), n)
		}
		for s, row := range want {
			if got := l.Succ(int32(s)); !slices.Equal(got, row) {
				t.Fatalf("bulk=%v: state %d has %v, want %v", bulk, s, got, row)
			}
		}
	}
}

// TestCSRBuildTrimsLongTail checks Build's trim: an edge array whose
// unused tail exceeds a fifth of its capacity, whether Reserve's doubling
// or Emit's append growth left it, is cut once.
func TestCSRBuildTrimsLongTail(t *testing.T) {
	const n = 1000
	rb := NewCSRBuilder(nil, nil)
	rb.Reserve(1, 3*n)
	if err := rb.EmitRow(0, make([]Transition, n)); err != nil {
		t.Fatal(err)
	}
	eb := NewCSRBuilder(nil, nil)
	if err := eb.BeginState(0); err != nil {
		t.Fatal(err)
	}
	// Stop just after an append growth, when the tail is longest.
	for len(eb.edges) < n || 4*cap(eb.edges) <= 5*len(eb.edges) {
		eb.Emit(Tau, 0, 0)
	}
	for name, b := range map[string]*CSRBuilder{"Reserve": rb, "Emit": eb} {
		if l := b.Build(1, 0); 4*cap(l.edges) > 5*len(l.edges) {
			t.Errorf("%s tail kept: %d edges in a capacity of %d", name, len(l.edges), cap(l.edges))
		}
	}
}

func TestTauSCCs(t *testing.T) {
	// 0 --tau--> 1 --tau--> 2 --tau--> 1 (cycle {1,2}), 0 --a--> 3,
	// 3 --tau--> 3 (self loop).
	b := NewBuilder(nil)
	b.SetInit(0)
	b.Add(0, TauName, 1)
	b.Add(1, TauName, 2)
	b.Add(2, TauName, 1)
	b.Add(0, "a", 3)
	b.Add(3, TauName, 3)
	l := b.Build()
	scc := TauSCCs(l)
	if scc.Comp[1] != scc.Comp[2] {
		t.Fatal("1 and 2 must share a component")
	}
	if scc.Comp[0] == scc.Comp[1] || scc.Comp[0] == scc.Comp[3] {
		t.Fatal("0 must be alone")
	}
	if !scc.Divergent[scc.Comp[1]] || !scc.Divergent[scc.Comp[3]] {
		t.Fatal("cycle components must be divergent")
	}
	if scc.Divergent[scc.Comp[0]] {
		t.Fatal("state 0 is not divergent")
	}
	// Reverse-topological numbering: tau edge 0->1 crosses components from
	// higher to lower.
	if scc.Comp[0] <= scc.Comp[1] {
		t.Fatalf("expected Comp[0] > Comp[1], got %d vs %d", scc.Comp[0], scc.Comp[1])
	}

	if s, ok := HasTauCycle(l); !ok {
		t.Fatal("tau cycle not found")
	} else if !scc.Divergent[scc.Comp[s]] {
		t.Fatal("HasTauCycle returned a non-divergent state")
	}
}

// TestTauSCCsMemoized: an LTS computes its τ-SCC decomposition once and
// hands every caller the same one; an LTS derived from it by Lift,
// CollapseTauSCCs or DisjointUnion gets its own.
func TestTauSCCsMemoized(t *testing.T) {
	b := NewBuilder(nil)
	b.SetInit(0)
	b.Add(0, TauName, 1)
	b.Add(1, TauName, 0)
	b.Add(1, "a", 2)
	l := b.Build()
	scc := TauSCCs(l)
	if TauSCCs(l) != scc {
		t.Fatal("second TauSCCs call recomputed the decomposition")
	}
	col, _ := CollapseTauSCCs(l, scc)
	union, _, err := DisjointUnion(l, l)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*LTS{"collapse": col, "lift": Lift(l, []int32{0, 0, 0}, 1), "union": union} {
		got := TauSCCs(d)
		if got == scc || len(got.Comp) != d.NumStates() {
			t.Fatalf("%s: shares its source's decomposition or has %d entries for %d states", name, len(got.Comp), d.NumStates())
		}
		if TauSCCs(d) != got {
			t.Fatalf("%s: decomposition not memoized", name)
		}
	}
	if s, ok := HasTauCycle(union); !ok || s != 0 {
		t.Fatalf("HasTauCycle(union) = %d, %v; want 0, true", s, ok)
	}
}

// TestTauSCCsConcurrent: concurrent first calls on one LTS all return the
// one decomposition (run under -race).
func TestTauSCCsConcurrent(t *testing.T) {
	b := NewBuilder(nil)
	b.SetInit(0)
	for s := 0; s < 200; s++ {
		b.Add(s, TauName, (s+1)%200)
	}
	l := b.Build()
	got := make([]*TauSCC, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = TauSCCs(l)
			if _, ok := DivergencePath(l); !ok {
				t.Error("no divergence lasso on a τ-ring")
			}
		}()
	}
	wg.Wait()
	for _, scc := range got {
		if scc != got[0] || scc.NumComps != 1 {
			t.Fatalf("goroutines got different decompositions (%p vs %p, %d comps)", scc, got[0], scc.NumComps)
		}
	}
}

// TestLiftMatchesNaive compares Lift with a map-only oracle on random
// systems whose classes emit rows on both sides of the short-row scan
// limit, with duplicate edges and action IDs 65,536 apart: same edges,
// same order, same first labels.
func TestLiftMatchesNaive(t *testing.T) {
	acts := NewAlphabet()
	for i := 1; i <= 1<<16+4; i++ {
		acts.ID(fmt.Sprintf("a%d", i))
	}
	pool := []ActionID{Tau, 1, 2, 3, 1 + 1<<16, 2 + 1<<16}
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		n, classes := 20+r.Intn(60), 1+r.Intn(8)
		b := NewBuilder(acts)
		b.SetInit(r.Intn(n))
		b.AddStates(n)
		for i := 0; i < r.Intn(12*n); i++ {
			b.AddFull(r.Intn(n), pool[r.Intn(len(pool))], LabelID(i), r.Intn(n))
		}
		l := b.Build()
		classOf := make([]int32, n)
		for s := range classOf {
			classOf[s] = int32(r.Intn(classes))
		}
		got, want := Lift(l, classOf, classes), naiveLift(l, classOf, classes)
		if got.NumStates() != want.NumStates() || got.Init != want.Init {
			t.Fatalf("seed %d: %d states init %d, want %d init %d", seed, got.NumStates(), got.Init, want.NumStates(), want.Init)
		}
		for c := int32(0); int(c) < classes; c++ {
			if !slices.Equal(got.Succ(c), want.Succ(c)) {
				t.Fatalf("seed %d class %d:\n got %v\nwant %v", seed, c, got.Succ(c), want.Succ(c))
			}
		}
	}
}

// naiveLift is Lift with one map per class: the oracle for its row scan.
func naiveLift(l *LTS, classOf []int32, n int) *LTS {
	b := NewCSRBuilder(l.Acts, l.Labels)
	for c := int32(0); int(c) < n; c++ {
		b.BeginState(c)
		seen := make(map[[2]int32]bool)
		for s := range classOf {
			if classOf[s] != c {
				continue
			}
			for _, t := range l.Succ(int32(s)) {
				d := classOf[t.Dst]
				k := [2]int32{d, int32(t.Action)}
				if (IsTau(t.Action) && d == c) || seen[k] {
					continue
				}
				seen[k] = true
				b.Emit(t.Action, t.Label, d)
			}
		}
	}
	return b.Build(n, classOf[l.Init])
}

func TestCollapseTauSCCs(t *testing.T) {
	b := NewBuilder(nil)
	b.SetInit(0)
	b.Add(0, TauName, 1)
	b.Add(1, TauName, 0)
	b.Add(1, "a", 2)
	b.Add(0, "a", 2)
	l := b.Build()
	scc := TauSCCs(l)
	col, stateOf := CollapseTauSCCs(l, scc)
	if col.NumStates() != 2 {
		t.Fatalf("collapsed states = %d, want 2", col.NumStates())
	}
	if stateOf[0] != stateOf[1] {
		t.Fatal("0 and 1 should collapse together")
	}
	// Duplicate a-edges merge into one; inert taus vanish.
	if col.NumTransitions() != 1 {
		t.Fatalf("collapsed transitions = %d, want 1", col.NumTransitions())
	}
	if col.CountTau() != 0 {
		t.Fatal("collapse left a tau")
	}
}

// TestCollapseKeepsWideAlphabetEdges pins the exact edge dedup key: two
// edges between the same pair of states whose action IDs differ by a
// multiple of 65,536 are distinct edges. A key that packed only the low
// 16 bits of the action ID merged them, dropping one.
func TestCollapseKeepsWideAlphabetEdges(t *testing.T) {
	acts := NewAlphabet()
	for i := 1; i <= 65538; i++ {
		acts.ID(fmt.Sprintf("a%d", i))
	}
	a2, _ := acts.Lookup("a2")
	wide, _ := acts.Lookup("a65538")
	if wide-a2 != 1<<16 {
		t.Fatalf("action IDs %d and %d must differ by 65536", a2, wide)
	}
	b := NewBuilder(acts)
	b.SetInit(0)
	b.AddID(0, a2, 1)
	b.AddID(0, wide, 1)
	l := b.Build()
	col, _ := CollapseTauSCCs(l, TauSCCs(l))
	if col.NumTransitions() != 2 {
		t.Fatalf("collapsed transitions = %d, want 2 (0 --a2--> 1 and 0 --a65538--> 1)", col.NumTransitions())
	}
}

func TestDisjointUnion(t *testing.T) {
	acts := NewAlphabet()
	b1 := NewBuilder(acts)
	b1.SetInit(0)
	b1.Add(0, "a", 1)
	l1 := b1.Build()
	b2 := NewBuilder(acts)
	b2.SetInit(1)
	b2.Add(0, "b", 1)
	b2.Add(1, "a", 0)
	l2 := b2.Build()
	u, initB, err := DisjointUnion(l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumStates() != 4 || u.NumTransitions() != 3 {
		t.Fatalf("union %d states %d trans", u.NumStates(), u.NumTransitions())
	}
	if initB != 3 {
		t.Fatalf("initB = %d, want 3", initB)
	}
	if u.Succ(3)[0].Dst != 2 {
		t.Fatalf("shifted edge dst = %d, want 2", u.Succ(3)[0].Dst)
	}

	other := NewBuilder(nil)
	other.SetInit(0)
	if _, _, err := DisjointUnion(l1, other.Build()); err == nil {
		t.Fatal("union across alphabets must fail")
	}
}

func TestShortestPathAndDivergence(t *testing.T) {
	b := NewBuilder(nil)
	b.SetInit(0)
	b.Add(0, "a", 1)
	b.Add(1, TauName, 2)
	b.Add(2, TauName, 1)
	l := b.Build()
	p, ok := ShortestPathTo(l, func(s int32) bool { return s == 2 })
	if !ok || len(p.Steps) != 2 {
		t.Fatalf("path to 2: ok=%v steps=%d", ok, len(p.Steps))
	}
	if got := p.Trace(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("trace = %v", got)
	}
	d, ok := DivergencePath(l)
	if !ok {
		t.Fatal("divergence not found")
	}
	if d.Cycle < 0 || d.Cycle >= len(d.Steps) {
		t.Fatalf("bad cycle index %d of %d steps", d.Cycle, len(d.Steps))
	}
	// The cycle must return to its starting state via taus only.
	start := d.Steps[d.Cycle].From
	for _, st := range d.Steps[d.Cycle:] {
		if !IsTau(st.Action) {
			t.Fatal("cycle contains a visible action")
		}
	}
	if d.Steps[len(d.Steps)-1].To != start {
		t.Fatal("cycle does not close")
	}
	if !strings.Contains(d.Format(), "divergence") {
		t.Fatal("Format should mention the divergence")
	}

	// A divergence-free system yields no path.
	b2 := NewBuilder(nil)
	b2.SetInit(0)
	b2.Add(0, "a", 1)
	if _, ok := DivergencePath(b2.Build()); ok {
		t.Fatal("found divergence in a divergence-free system")
	}
}

func TestPathToUnreachableGoal(t *testing.T) {
	b := NewBuilder(nil)
	b.SetInit(0)
	b.Add(0, "a", 1)
	b.AddStates(3)
	l := b.Build()
	if _, ok := ShortestPathTo(l, func(s int32) bool { return s == 2 }); ok {
		t.Fatal("state 2 should be unreachable")
	}
}

func TestExports(t *testing.T) {
	b := NewBuilder(nil)
	b.SetInit(0)
	b.Add(0, "a", 1)
	b.Add(1, TauName, 0)
	l := b.Build()
	var dot, aut bytes.Buffer
	if err := WriteDOT(&dot, l, "test"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), `label="a"`) {
		t.Fatalf("dot output missing label: %s", dot.String())
	}
	if err := WriteAUT(&aut, l); err != nil {
		t.Fatal(err)
	}
	want := "des (0, 2, 2)"
	if !strings.Contains(aut.String(), want) {
		t.Fatalf("aut output missing %q: %s", want, aut.String())
	}
	if !strings.Contains(aut.String(), `"i"`) {
		t.Fatal("aut output should render tau as \"i\"")
	}
}

func TestReachable(t *testing.T) {
	b := NewBuilder(nil)
	b.SetInit(0)
	b.Add(0, "a", 1)
	b.Add(2, "b", 0) // 2 unreachable
	l := b.Build()
	r := Reachable(l)
	if !r[0] || !r[1] || r[2] {
		t.Fatalf("reachable = %v", r)
	}
}

func TestHasTrace(t *testing.T) {
	b := NewBuilder(nil)
	b.SetInit(0)
	b.Add(0, TauName, 1)
	b.Add(1, "a", 2)
	b.Add(2, "b", 3)
	b.Add(0, "c", 4)
	l := b.Build()
	cases := []struct {
		trace []string
		want  bool
	}{
		{nil, true},
		{[]string{"a"}, true},
		{[]string{"a", "b"}, true},
		{[]string{"b"}, false},
		{[]string{"c"}, true},
		{[]string{"c", "a"}, false},
		{[]string{"missing"}, false},
	}
	for _, tc := range cases {
		if got := HasTrace(l, tc.trace); got != tc.want {
			t.Errorf("HasTrace(%v) = %v, want %v", tc.trace, got, tc.want)
		}
	}
}
