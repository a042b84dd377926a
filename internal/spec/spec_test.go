package spec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/lts"
	"repro/internal/machine"
)

func explore(t *testing.T, p *machine.Program, threads, ops int) *lts.LTS {
	t.Helper()
	l, _, err := machine.ExploreWithInfoContext(context.Background(), p, machine.Options{Threads: threads, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// actionsOf collects all action names occurring in the system.
func actionsOf(l *lts.LTS) map[string]bool {
	out := map[string]bool{}
	for s := int32(0); s < int32(l.NumStates()); s++ {
		for _, tr := range l.Succ(s) {
			out[l.Acts.Name(tr.Action)] = true
		}
	}
	return out
}

func TestPairEncoding(t *testing.T) {
	for _, exp := range []int32{0, 1} {
		for _, val := range []int32{0, 1} {
			e, v := DecodePair(EncodePair(exp, val))
			if e != exp || v != val {
				t.Fatalf("pair (%d,%d) roundtrips to (%d,%d)", exp, val, e, v)
			}
		}
	}
	if got := FormatPair(nil, EncodePair(1, 0)); got != "1,0" {
		t.Fatalf("FormatPair = %q", got)
	}
	if len(PairArgs()) != 2 {
		t.Fatalf("PairArgs = %v", PairArgs())
	}
}

func TestTripleEncoding(t *testing.T) {
	for _, o1 := range []int32{0, 1} {
		for _, o2 := range []int32{0, 1} {
			for _, n2 := range []int32{0, 1} {
				a, b, c := DecodeTriple(EncodeTriple(o1, o2, n2))
				if a != o1 || b != o2 || c != n2 {
					t.Fatalf("triple (%d,%d,%d) roundtrips to (%d,%d,%d)", o1, o2, n2, a, b, c)
				}
			}
		}
	}
	if got := FormatTriple(nil, EncodeTriple(1, 0, 1)); got != "1,0,1" {
		t.Fatalf("FormatTriple = %q", got)
	}
	if len(TripleArgs()) != 4 {
		t.Fatalf("TripleArgs = %v", TripleArgs())
	}
}

func TestQueueSpecIsFIFO(t *testing.T) {
	q := Queue([]int32{1, 2}, 4)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	l := explore(t, q, 1, 3)
	acts := actionsOf(l)
	// A single thread doing Enq(1), Enq(2), Deq must be able to dequeue
	// 1 (FIFO); dequeuing the empty queue must yield empty.
	for _, want := range []string{"t1.call.Enq(1)", "t1.ret.Deq(1)", "t1.ret.Deq(empty)"} {
		if !acts[want] {
			t.Errorf("missing action %q", want)
		}
	}
	// LIFO-only behaviour would be a bug: after exactly Enq(1);Enq(2)
	// the first Deq yields 1, never 2. Verify via trace search.
	if lts.HasTrace(l, []string{
		"t1.call.Enq(1)", "t1.ret.Enq(ok)",
		"t1.call.Enq(2)", "t1.ret.Enq(ok)",
		"t1.call.Deq", "t1.ret.Deq(2)",
	}) {
		t.Error("queue dequeued LIFO")
	}
	if !lts.HasTrace(l, []string{
		"t1.call.Enq(1)", "t1.ret.Enq(ok)",
		"t1.call.Enq(2)", "t1.ret.Enq(ok)",
		"t1.call.Deq", "t1.ret.Deq(1)",
	}) {
		t.Error("queue cannot dequeue FIFO")
	}
}

func TestStackSpecIsLIFO(t *testing.T) {
	s := Stack([]int32{1, 2}, 4)
	l := explore(t, s, 1, 3)
	if !lts.HasTrace(l, []string{
		"t1.call.Push(1)", "t1.ret.Push(ok)",
		"t1.call.Push(2)", "t1.ret.Push(ok)",
		"t1.call.Pop", "t1.ret.Pop(2)",
	}) {
		t.Error("stack cannot pop LIFO")
	}
	if lts.HasTrace(l, []string{
		"t1.call.Push(1)", "t1.ret.Push(ok)",
		"t1.call.Push(2)", "t1.ret.Push(ok)",
		"t1.call.Pop", "t1.ret.Pop(1)",
	}) {
		t.Error("stack popped FIFO")
	}
}

func TestSetSpecSemantics(t *testing.T) {
	s := Set([]int32{1, 2}, SetMethods{Contains: true})
	l := explore(t, s, 1, 3)
	cases := []struct {
		trace []string
		want  bool
	}{
		{[]string{"t1.call.Add(1)", "t1.ret.Add(true)", "t1.call.Add(1)", "t1.ret.Add(false)"}, true},
		{[]string{"t1.call.Add(1)", "t1.ret.Add(true)", "t1.call.Add(1)", "t1.ret.Add(true)"}, false},
		{[]string{"t1.call.Remove(1)", "t1.ret.Remove(true)"}, false},
		{[]string{"t1.call.Add(1)", "t1.ret.Add(true)", "t1.call.Remove(1)", "t1.ret.Remove(true)"}, true},
		{[]string{"t1.call.Add(1)", "t1.ret.Add(true)", "t1.call.Contains(2)", "t1.ret.Contains(true)"}, false},
		{[]string{"t1.call.Add(2)", "t1.ret.Add(true)", "t1.call.Contains(2)", "t1.ret.Contains(true)"}, true},
	}
	for _, tc := range cases {
		if got := lts.HasTrace(l, tc.trace); got != tc.want {
			t.Errorf("trace %v: reachable=%v, want %v", tc.trace, got, tc.want)
		}
	}
}

func TestSpecShapeIsCallTauReturn(t *testing.T) {
	// Every spec method execution is call → τ → return (Section II.C).
	for _, p := range []*machine.Program{
		Queue([]int32{1}, 2), Stack([]int32{1}, 2),
		Set([]int32{1}, SetMethods{}), NewCAS(), CCAS(), RDCSS(),
	} {
		for _, m := range p.Methods {
			if len(m.Body) != 1 {
				t.Errorf("%s.%s has %d atomic blocks, want 1", p.Name, m.Name, len(m.Body))
			}
		}
		l := explore(t, p, 1, 1)
		if c := l.CountTau(); c == 0 {
			t.Errorf("%s: expected τ steps for the atomic blocks", p.Name)
		}
	}
}

func TestRegisterSpecs(t *testing.T) {
	l := explore(t, NewCAS(), 1, 2)
	// Register starts at 0: NewCAS(0,1) returns 0 (=exp, success) and a
	// following NewCAS(0,1) returns 1 (failure: prior value).
	if !lts.HasTrace(l, []string{
		"t1.call.NewCAS(0,1)", "t1.ret.NewCAS(0)",
		"t1.call.NewCAS(0,1)", "t1.ret.NewCAS(1)",
	}) {
		t.Error("NewCAS spec semantics wrong")
	}

	l = explore(t, CCAS(), 1, 3)
	// With the flag set, CCAS must not write.
	if !lts.HasTrace(l, []string{
		"t1.call.SetFlag(1)", "t1.ret.SetFlag(ok)",
		"t1.call.CCAS(0,1)", "t1.ret.CCAS(0)",
		"t1.call.CCAS(1,0)", "t1.ret.CCAS(0)",
	}) {
		t.Error("CCAS spec ignored the flag")
	}

	l = explore(t, RDCSS(), 1, 3)
	// r1=0, r2=0: RDCSS(1,0,1) fails the control comparison (returns
	// old r2=0, no write), then RDCSS(0,0,1) succeeds.
	if !lts.HasTrace(l, []string{
		"t1.call.RDCSS(1,0,1)", "t1.ret.RDCSS(0)",
		"t1.call.RDCSS(0,0,1)", "t1.ret.RDCSS(0)",
		"t1.call.RDCSS(0,1,0)", "t1.ret.RDCSS(1)",
	}) {
		t.Error("RDCSS spec semantics wrong")
	}
}

// TestCapacityPanics: overflowing the spec queue panics (a mis-sized
// instance), and the explorer reports the panic as a model fault at any
// worker count.
func TestCapacityPanics(t *testing.T) {
	q := Queue([]int32{1}, 1)
	for _, workers := range []int{1, 2} {
		_, _, err := machine.ExploreWithInfoContext(context.Background(), q, machine.Options{Threads: 1, Ops: 3, Workers: workers})
		var fault *machine.ModelFaultError
		if !errors.As(err, &fault) {
			t.Fatalf("workers=%d: overflowing the spec queue must fail as a model fault, got %v", workers, err)
		}
		if !strings.Contains(fmt.Sprint(fault.Cause), "queue capacity exceeded") {
			t.Errorf("workers=%d: fault cause = %v", workers, fault.Cause)
		}
	}
}

func TestBoolRendering(t *testing.T) {
	s := Set([]int32{1}, SetMethods{})
	l := explore(t, s, 1, 1)
	for name := range actionsOf(l) {
		if strings.Contains(name, "ret.Add") && !strings.Contains(name, "true") && !strings.Contains(name, "false") {
			t.Errorf("Add return not rendered as bool: %q", name)
		}
	}
}
