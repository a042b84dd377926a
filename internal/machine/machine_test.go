package machine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/lts"
)

// counterProgram is a single shared counter with an atomic Inc method and
// a two-step NonAtomicInc (read then write).
func counterProgram() *Program {
	return &Program{
		Name:    "counter",
		Globals: Schema{Names: []string{"c"}, Kinds: []VarKind{KVal}},
		NLocals: 1,
		Methods: []Method{
			{
				Name: "Inc",
				Body: []Stmt{{
					Label: "L1",
					Exec: func(c *Ctx) {
						c.SetV(0, c.V(0)+1)
						c.Return(ValOK)
					},
				}},
			},
			{
				Name: "Read",
				Body: []Stmt{{
					Label: "L2",
					Exec: func(c *Ctx) {
						c.Return(c.V(0))
					},
				}},
			},
		},
	}
}

func TestExploreSingleThreadShape(t *testing.T) {
	p := counterProgram()
	l, _, err := ExploreWithInfoContext(context.Background(), p, Options{Threads: 1, Ops: 1})
	if err != nil {
		t.Fatal(err)
	}
	// call Inc | call Read from the initial state; each runs one tau and
	// one return: states: init, 2 running, 2 returning, 2 final... the
	// two final states differ in the counter value (1 vs 0).
	if l.NumStates() != 7 {
		t.Fatalf("states = %d, want 7", l.NumStates())
	}
	if l.NumTransitions() != 6 {
		t.Fatalf("transitions = %d, want 6", l.NumTransitions())
	}
	var names []string
	for s := int32(0); s < int32(l.NumStates()); s++ {
		for _, tr := range l.Succ(s) {
			names = append(names, l.Acts.Name(tr.Action))
		}
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"t1.call.Inc", "t1.call.Read", "t1.ret.Inc(ok)", "t1.ret.Read(0)"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing action %q in %v", want, names)
		}
	}
	if l.CountTau() != 2 {
		t.Fatalf("tau count = %d, want 2", l.CountTau())
	}
}

func TestExploreInterleavings(t *testing.T) {
	p := counterProgram()
	l, _, err := ExploreWithInfoContext(context.Background(), p, Options{Threads: 2, Ops: 1})
	if err != nil {
		t.Fatal(err)
	}
	if l.NumStates() < 20 {
		t.Fatalf("suspiciously small state space: %d", l.NumStates())
	}
	// A Read racing an Inc can return 0 or 1.
	found0, found1 := false, false
	for s := int32(0); s < int32(l.NumStates()); s++ {
		for _, tr := range l.Succ(s) {
			switch l.Acts.Name(tr.Action) {
			case "t1.ret.Read(0)":
				found0 = true
			case "t1.ret.Read(1)":
				found1 = true
			}
		}
	}
	if !found0 || !found1 {
		t.Fatalf("expected both Read outcomes, got 0:%v 1:%v", found0, found1)
	}
}

func TestBlockingStatement(t *testing.T) {
	p := &Program{
		Name:    "gate",
		Globals: Schema{Names: []string{"open"}, Kinds: []VarKind{KVal}},
		Methods: []Method{
			{
				Name: "Wait",
				Body: []Stmt{{
					Label: "W",
					Exec: func(c *Ctx) {
						if c.V(0) == 1 {
							c.Return(ValOK)
						}
						// else: blocked, no outcome
					},
				}},
			},
			{
				Name: "Open",
				Body: []Stmt{{
					Label: "O",
					Exec: func(c *Ctx) {
						c.SetV(0, 1)
						c.Return(ValOK)
					},
				}},
			},
		},
	}
	l, _, err := ExploreWithInfoContext(context.Background(), p, Options{Threads: 2, Ops: 1})
	if err != nil {
		t.Fatal(err)
	}
	// No tau cycles: a blocked statement contributes no transition.
	if _, cyc := lts.HasTauCycle(l); cyc {
		t.Fatal("blocking must not create tau cycles")
	}
	// Wait can only return after Open ran, so the trace
	// t1.ret.Wait before t2.call.Open must be impossible. Verify no state
	// has a Wait-return before any Open call by scanning paths of visible
	// actions: simply check that every ret.Wait-labeled transition is
	// reachable only after an Open call action. We approximate by
	// checking a necessary global property: the initial state cannot
	// reach ret.Wait without passing a call.Open edge. Remove all
	// call.Open edges and verify ret.Wait is unreachable.
	b := lts.NewBuilder(l.Acts)
	b.SetInit(int(l.Init))
	b.AddStates(l.NumStates())
	retWait := false
	for s := int32(0); s < int32(l.NumStates()); s++ {
		for _, tr := range l.Succ(s) {
			name := l.Acts.Name(tr.Action)
			if strings.Contains(name, "call.Open") {
				continue
			}
			b.AddID(int(s), tr.Action, int(tr.Dst))
		}
	}
	pruned := b.Build()
	reach := lts.Reachable(pruned)
	for s := int32(0); s < int32(pruned.NumStates()); s++ {
		if !reach[s] {
			continue
		}
		for _, tr := range pruned.Succ(s) {
			if strings.Contains(pruned.Acts.Name(tr.Action), "ret.Wait") {
				retWait = true
			}
		}
	}
	if retWait {
		t.Fatal("Wait returned without any Open call")
	}
}

func TestSpinStatementCreatesTauCycle(t *testing.T) {
	p := &Program{
		Name:    "spinner",
		Globals: Schema{Names: []string{"flag"}, Kinds: []VarKind{KVal}},
		Methods: []Method{
			{
				Name: "Spin",
				Body: []Stmt{{
					Label: "S",
					Exec: func(c *Ctx) {
						if c.V(0) == 1 {
							c.Return(ValOK)
						} else {
							c.Goto(0) // busy wait
						}
					},
				}},
			},
		},
	}
	l, _, err := ExploreWithInfoContext(context.Background(), p, Options{Threads: 1, Ops: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, cyc := lts.HasTauCycle(l); !cyc {
		t.Fatal("busy waiting must produce a tau cycle")
	}
}

func TestStateLimit(t *testing.T) {
	p := counterProgram()
	_, _, err := ExploreWithInfoContext(context.Background(), p, Options{Threads: 2, Ops: 2, MaxStates: 10})
	var lim *StateLimitError
	if !errors.As(err, &lim) {
		t.Fatalf("expected StateLimitError, got %v", err)
	}
	if lim.Limit != 10 || !strings.Contains(lim.Error(), "counter") {
		t.Fatalf("unexpected error contents: %v", lim)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		prog *Program
	}{
		{"no name", &Program{}},
		{"schema mismatch", &Program{Name: "x", Globals: Schema{Names: []string{"a"}}}},
		{"no methods", &Program{Name: "x"}},
		{"empty body", &Program{Name: "x", Methods: []Method{{Name: "m"}}}},
		{"dup methods", &Program{Name: "x", Methods: []Method{
			{Name: "m", Body: []Stmt{{Exec: func(c *Ctx) { c.Return(0) }}}},
			{Name: "m", Body: []Stmt{{Exec: func(c *Ctx) { c.Return(0) }}}},
		}}},
		{"bad locals", &Program{Name: "x", NLocals: 2, LocalKinds: []VarKind{KVal},
			Methods: []Method{{Name: "m", Body: []Stmt{{Exec: func(c *Ctx) { c.Return(0) }}}}}}},
	}
	for _, tc := range cases {
		if err := tc.prog.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
	if err := counterProgram().Validate(); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
	if _, _, err := ExploreWithInfoContext(context.Background(), counterProgram(), Options{Threads: 0, Ops: 1}); err == nil {
		t.Error("expected error for zero threads")
	}
}

func TestCanonicalizationMergesSymmetricHeaps(t *testing.T) {
	// Two threads each allocate one node and link it to a shared list
	// head. The interleaving order changes raw allocation indices but
	// canonicalization must merge the resulting states.
	p := &Program{
		Name:    "allocator",
		Globals: Schema{Names: []string{"head"}, Kinds: []VarKind{KPtr}},
		HeapCap: 4,
		NLocals: 1,
		LocalKinds: []VarKind{
			KPtr,
		},
		Methods: []Method{
			{
				Name: "PushVal",
				Args: []int32{7},
				Body: []Stmt{
					{Label: "alloc", Exec: func(c *Ctx) {
						n := c.Alloc(1)
						c.Node(n).Val = c.Arg
						c.L[0] = n
						c.Goto(1)
					}},
					{Label: "link", Exec: func(c *Ctx) {
						c.Node(c.L[0]).Next = c.V(0)
						c.SetV(0, c.L[0])
						c.Return(ValOK)
					}},
				},
			},
		},
	}
	l, _, err := ExploreWithInfoContext(context.Background(), p, Options{Threads: 2, Ops: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Count terminal states (all ops done): both interleavings end with
	// the same canonical two-node list, so exactly one terminal state.
	terminals := 0
	for s := int32(0); s < int32(l.NumStates()); s++ {
		if len(l.Succ(s)) == 0 {
			terminals++
		}
	}
	if terminals != 1 {
		t.Fatalf("terminal states = %d, want 1 (canonicalization failed)", terminals)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := &Program{
		Name:    "rt",
		Globals: Schema{Names: []string{"a", "b"}, Kinds: []VarKind{KVal, KPtr}},
		HeapCap: 3,
		NLocals: 2,
		Methods: []Method{{Name: "m", Args: []int32{1, 3}, Body: []Stmt{
			{Exec: func(c *Ctx) { c.Goto(1) }},
			{Exec: func(c *Ctx) { c.Return(0) }},
		}}},
	}
	cdc := newCodec(p, Options{Threads: 1, Ops: 2})
	st := &state{
		g:  &Global{Vars: []int32{-2, 1}, Heap: make([]Node, 4)},
		th: []thread{{status: statusRunning, method: 0, arg: 3, pc: 1, ret: -2, ops: 2, locals: []int32{5, -1}}},
	}
	st.g.Heap[1] = Node{Kind: 2, Val: 7, Key: -3, Next: 2, Mark: true, Lock: 1}
	st.g.Heap[2] = Node{Kind: 1, C: 9, D: -8}
	// The state is built by hand, not canonicalized: give it its
	// watermark the way the canonicalizer does.
	st.setWatermark(len(st.g.Heap) - 1)
	buf := cdc.encode(nil, st)
	got := &state{
		g:  &Global{Vars: make([]int32, 2), Heap: make([]Node, 4)},
		th: []thread{{locals: make([]int32, 2)}},
	}
	cdc.decode(buf, got)
	if got.g.Vars[0] != -2 || got.g.Vars[1] != 1 {
		t.Fatalf("vars = %v", got.g.Vars)
	}
	if got.g.Heap[1] != st.g.Heap[1] || got.g.Heap[2] != st.g.Heap[2] || got.g.Heap[3] != (Node{}) {
		t.Fatalf("heap mismatch: %+v", got.g.Heap)
	}
	if got.hw != 2 {
		t.Fatalf("decoded watermark = %d, want 2", got.hw)
	}
	th := got.th[0]
	if th.status != statusRunning || th.arg != 3 || th.pc != 1 || th.ret != -2 || th.ops != 2 {
		t.Fatalf("thread mismatch: %+v", th)
	}
	if th.locals[0] != 5 || th.locals[1] != -1 {
		t.Fatalf("locals mismatch: %v", th.locals)
	}
}

func TestCanonicalizerDropsGarbageKeepsReferenced(t *testing.T) {
	p := &Program{
		Name:       "c",
		Globals:    Schema{Names: []string{"root"}, Kinds: []VarKind{KPtr}},
		HeapCap:    5,
		NLocals:    2,
		LocalKinds: []VarKind{KPtr, KTagged},
		Methods:    []Method{{Name: "m", Body: []Stmt{{Exec: func(c *Ctx) { c.Return(0) }}}}},
	}
	st := &state{
		g:  &Global{Vars: []int32{3}, Heap: make([]Node, 6)},
		th: []thread{{locals: []int32{5, Ref(4)}}},
	}
	st.g.Heap[3] = Node{Kind: 1, Val: 30, Next: 1}
	st.g.Heap[1] = Node{Kind: 1, Val: 10}
	st.g.Heap[2] = Node{Kind: 1, Val: 99} // garbage
	st.g.Heap[5] = Node{Kind: 2, Val: 50} // kept: local pointer
	st.g.Heap[4] = Node{Kind: 3, Val: 40} // kept: tagged local ref
	c := newCanonicalizer(p, 6)
	c.run(st)
	// Root order: global root (node 3 -> 1), its Next (node 1 -> ...),
	// wait: BFS order is roots first: global=3 gets id1, local 5 gets id2,
	// tagged 4 gets id3, then 3's Next (old 1) gets id4.
	if st.g.Vars[0] != 1 {
		t.Fatalf("root renamed to %d, want 1", st.g.Vars[0])
	}
	if st.th[0].locals[0] != 2 || st.th[0].locals[1] != Ref(3) {
		t.Fatalf("locals renamed to %v", st.th[0].locals)
	}
	if st.g.Heap[1].Val != 30 || st.g.Heap[2].Val != 50 || st.g.Heap[3].Val != 40 || st.g.Heap[4].Val != 10 {
		t.Fatalf("heap after canon: %+v", st.g.Heap[:6])
	}
	if st.g.Heap[1].Next != 4 {
		t.Fatalf("renamed Next = %d, want 4", st.g.Heap[1].Next)
	}
	if st.g.Heap[5] != (Node{}) {
		t.Fatal("garbage node survived")
	}
}

func TestLockHelpers(t *testing.T) {
	g := &Global{Vars: make([]int32, 1), Heap: make([]Node, 2)}
	g.Heap[1].Kind = 1
	node := Loc{Kind: LocField, Index: 0, Field: FieldLock, Name: "n"}
	global := Loc{Kind: LocGlobal, Index: 0, Name: "L"}
	// run executes "op(l); goto 1" as thread tid and reports whether the
	// statement emitted its outcome (false: it blocked).
	run := func(tid int, op IROp, l Loc) bool {
		c := &Ctx{T: tid, G: g, L: []int32{1}}
		RunIR(c, []Instr{{Op: op, LHS: l}, {Op: IRGoto, Target: 1}})
		return len(c.outs) == 1
	}
	for _, l := range []Loc{node, global} {
		if !run(0, IRLock, l) {
			t.Fatalf("%s: lock should be free", l.Name)
		}
		if run(0, IRLock, l) {
			t.Fatalf("%s: lock should be held, blocking its holder", l.Name)
		}
		if run(1, IRLock, l) {
			t.Fatalf("%s: other thread must not acquire", l.Name)
		}
		run(0, IRUnlock, l)
		if !run(1, IRLock, l) {
			t.Fatalf("%s: lock should be free again", l.Name)
		}
	}
	if g.Heap[1].Lock != 2 || g.Vars[0] != 2 {
		t.Fatalf("lock words = %d, %d; want thread 2's token", g.Heap[1].Lock, g.Vars[0])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unlocking a foreign lock must panic")
		}
	}()
	run(0, IRUnlock, node)
}

// TestNondeterministicStatement checks the multi-outcome contract: a
// statement may emit several outcomes provided it mutated nothing.
func TestNondeterministicStatement(t *testing.T) {
	p := &Program{
		Name:    "chooser",
		Globals: Schema{Names: []string{"x"}, Kinds: []VarKind{KVal}},
		Methods: []Method{{
			Name: "Flip",
			Body: []Stmt{
				{Label: "C1", Exec: func(c *Ctx) {
					c.Goto(1) // either branch
					c.Goto(2)
				}},
				{Label: "C2", Exec: func(c *Ctx) {
					c.SetV(0, 1)
					c.Return(1)
				}},
				{Label: "C3", Exec: func(c *Ctx) {
					c.SetV(0, 2)
					c.Return(2)
				}},
			},
		}},
	}
	l, _, err := ExploreWithInfoContext(context.Background(), p, Options{Threads: 1, Ops: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for s := int32(0); s < int32(l.NumStates()); s++ {
		for _, tr := range l.Succ(s) {
			got[l.Acts.Name(tr.Action)] = true
		}
	}
	if !got["t1.ret.Flip(1)"] || !got["t1.ret.Flip(2)"] {
		t.Fatalf("both branches must be explored: %v", got)
	}
}

// TestExploreDeterministic: two explorations of the same program yield
// byte-identical structure (state and transition counts, action sets).
func TestExploreDeterministic(t *testing.T) {
	p := counterProgram()
	a, _, err := ExploreWithInfoContext(context.Background(), p, Options{Threads: 2, Ops: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ExploreWithInfoContext(context.Background(), counterProgram(), Options{Threads: 2, Ops: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumStates() != b.NumStates() || a.NumTransitions() != b.NumTransitions() {
		t.Fatalf("nondeterministic exploration: %d/%d vs %d/%d",
			a.NumStates(), a.NumTransitions(), b.NumStates(), b.NumTransitions())
	}
	for s := int32(0); s < int32(a.NumStates()); s++ {
		sa, sb := a.Succ(s), b.Succ(s)
		if len(sa) != len(sb) {
			t.Fatalf("state %d: %d vs %d transitions", s, len(sa), len(sb))
		}
		for i := range sa {
			if a.Acts.Name(sa[i].Action) != b.Acts.Name(sb[i].Action) || sa[i].Dst != sb[i].Dst {
				t.Fatalf("state %d transition %d differs", s, i)
			}
		}
	}
}

// TestDeadlockInfo: ExploreWithInfo reports blocked-forever states and
// not legitimate terminal states.
func TestDeadlockInfo(t *testing.T) {
	blocked := &Program{
		Name:    "stuck",
		Globals: Schema{Names: []string{"x"}, Kinds: []VarKind{KVal}},
		Methods: []Method{{
			Name: "Wait",
			Body: []Stmt{{Label: "W", Exec: func(c *Ctx) {
				// Never enabled: permanent block.
			}}},
		}},
	}
	_, info, err := ExploreWithInfoContext(context.Background(), blocked, Options{Threads: 1, Ops: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Deadlocks) == 0 {
		t.Fatal("the blocked program must report a deadlock")
	}
	_, info, err = ExploreWithInfoContext(context.Background(), counterProgram(), Options{Threads: 2, Ops: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Deadlocks) != 0 {
		t.Fatalf("counter cannot deadlock, got %v", info.Deadlocks)
	}
}
