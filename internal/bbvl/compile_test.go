package bbvl

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/machine"
)

// TestNilDerefPanicsWithPosition checks that running a well-typed but
// wrong model (dereferencing nil at runtime) panics with the source
// position of the offending access, which the explorer returns as a
// *machine.ModelFaultError naming the statement.
func TestNilDerefPanicsWithPosition(t *testing.T) {
	src := `model broken
node cell { val: val  next: ptr }
globals { Top: ptr }
spec stack
method Push(v: vals) {
  var t: ptr
  P1: t = Top.next; goto P2
  P2: if cas(Top, t, nil) { return ok } else { goto P1 }
}
method Pop() { P9: return empty }
`
	m, err := Load("broken.bbvl", []byte(src))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	_, _, err = machine.ExploreWithInfoContext(context.Background(), m.Build(Config{Threads: 1, Ops: 1}),
		machine.Options{Threads: 1, Ops: 1, Workers: 1})
	var fault *machine.ModelFaultError
	if !errors.As(err, &fault) {
		t.Fatalf("err = %v, want a model fault from the nil dereference", err)
	}
	msg := fault.Cause.Error()
	if !strings.Contains(msg, "broken.bbvl:7:11") || !strings.Contains(msg, "nil or invalid pointer dereference") {
		t.Fatalf("cause = %q, want positioned nil-deref message", msg)
	}
	if fault.Thread != 0 || fault.Method != "Push" || fault.Label != "P1" || fault.Pos.Line != 7 {
		t.Fatalf("fault site = t%d %s.%s at %v, want t1 Push.P1 on line 7", fault.Thread+1, fault.Method, fault.Label, fault.Pos)
	}
}

// TestArgSetModel runs a model whose method argument ranges over an
// explicit literal set instead of the configured value universe.
func TestArgSetModel(t *testing.T) {
	src := `model argset
globals { G: val }
spec stack
method Push(v: {5, 9}) {
  P1: G = v; return ok
}
method Pop() {
  P2: return G
}
`
	m, err := Load("argset.bbvl", []byte(src))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	p := m.Build(Config{Threads: 1, Ops: 1})
	if got := p.Methods[0].Args; len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Fatalf("Push args = %v, want [5 9]", got)
	}
	l, _, err := machine.ExploreWithInfoContext(context.Background(), p, machine.Options{Threads: 1, Ops: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if l.NumStates() == 0 {
		t.Fatal("empty LTS")
	}
}

// TestFreeStatement exercises the free micro-instruction.
func TestFreeStatement(t *testing.T) {
	src := `model freeing
node cell { val: val  next: ptr }
globals { Top: ptr }
heap totalops + 1
spec stack
method Push(v: vals) {
  var n: ptr
  P1: n = alloc(cell); n.val = v; goto P2
  P2: if cas(Top, nil, n) { return ok } else { goto P3 }
  P3: free(n); return ok
}
method Pop() { P9: return empty }
`
	m, err := Load("freeing.bbvl", []byte(src))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, _, err := machine.ExploreWithInfoContext(context.Background(), m.Build(Config{Threads: 2, Ops: 1}),
		machine.Options{Threads: 2, Ops: 1, Workers: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestMarkFieldRoundTrip exercises mark-field reads and writes.
func TestMarkFieldRoundTrip(t *testing.T) {
	src := `model marking
node cell { val: val  next: ptr  dead: mark }
globals { Top: ptr  G: val }
spec stack
method Push(v: vals) {
  var n: ptr
  P1: n = alloc(cell); n.val = v; n.dead = false; goto P2
  P2: if cas(Top, nil, n) { return ok } else { goto P3 }
  P3: G = n.dead; return ok
}
method Pop() { P9: return empty }
`
	m, err := Load("marking.bbvl", []byte(src))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, _, err := machine.ExploreWithInfoContext(context.Background(), m.Build(Config{Threads: 1, Ops: 2}),
		machine.Options{Threads: 1, Ops: 2, Workers: 1}); err != nil {
		t.Fatal(err)
	}
}
