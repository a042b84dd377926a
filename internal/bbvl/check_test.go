package bbvl

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/machine"
)

// minimal wraps a method body in an otherwise-valid stack model.
func minimal(body string) string {
	return `model m
node cell { val: val  next: ptr }
globals { Top: ptr  G: val }
heap totalops + 1
spec stack
method Push(v: vals) {
` + body + `
}
method Pop() {
  P9: return empty
}
`
}

// wantDiag loads src expecting failure and asserts some diagnostic
// carries the given position and message fragment.
func wantDiag(t *testing.T, src, pos, frag string) {
	t.Helper()
	_, err := Load("m.bbvl", []byte(src))
	if err == nil {
		t.Fatalf("Load succeeded; want diagnostic %q at %s", frag, pos)
	}
	var list ErrorList
	if !errors.As(err, &list) {
		t.Fatalf("error is %T, want ErrorList: %v", err, err)
	}
	for _, e := range list {
		if strings.Contains(e.Msg, frag) {
			if got := e.Pos.String(); got != pos {
				t.Fatalf("diagnostic %q at %s, want %s", e.Msg, got, pos)
			}
			return
		}
	}
	t.Fatalf("no diagnostic contains %q; got:\n%v", frag, err)
}

func TestDuplicateMethodName(t *testing.T) {
	src := `model m
node cell { val: val  next: ptr }
globals { Top: ptr }
spec stack
method Push(v: vals) {
  P1: return ok
}
method Push(v: vals) {
  P2: return ok
}
`
	wantDiag(t, src, "m.bbvl:8:1", "duplicate method Push")
}

func TestUnguardedCasOnPlainVariable(t *testing.T) {
	// A statement-position cas on a val global discards its result:
	// indistinguishable from a blind write, so it is rejected.
	src := minimal(`  P1: cas(G, 0, 1); return ok`)
	wantDiag(t, src, "m.bbvl:7:7", "unguarded cas on plain (val) variable G")
}

func TestUnguardedCasOnPtrAllowed(t *testing.T) {
	// Helping CASes on pointers (MS queue tail swings) are fine.
	src := minimal(`  var t: ptr
  P1: t = Top; goto P2
  P2: cas(Top, t, nil); return ok`)
	if _, err := Load("m.bbvl", []byte(src)); err != nil {
		t.Fatalf("ptr cas statement rejected: %v", err)
	}
}

func TestFieldIndexOutOfRange(t *testing.T) {
	src := `model m
node wide { a: val  b: val  c: val  d: val  e: val }
globals { Top: ptr }
spec stack
method Push(v: vals) { P1: return ok }
method Pop() { P2: return empty }
`
	wantDiag(t, src, "m.bbvl:2:45", "field index out of range")
}

func TestPtrFieldIndexOutOfRange(t *testing.T) {
	src := `model m
node wide { p: ptr  q: ptr  r: ptr  s: ptr }
globals { Top: ptr }
spec stack
method Push(v: vals) { P1: return ok }
method Pop() { P2: return empty }
`
	wantDiag(t, src, "m.bbvl:2:37", "field index out of range")
}

func TestMissingSpecBlock(t *testing.T) {
	src := `model nospec
globals { Top: ptr }
method Push(v: vals) { P1: return ok }
method Pop() { P2: return empty }
`
	wantDiag(t, src, "m.bbvl:1:1", "missing its spec block")
}

func TestGotoUnknownLabel(t *testing.T) {
	src := minimal(`  P1: goto P7`)
	wantDiag(t, src, "m.bbvl:7:7", "goto P7: no statement with that label")
}

func TestDuplicateLabel(t *testing.T) {
	src := minimal(`  P1: goto P1
  P1: return ok`)
	wantDiag(t, src, "m.bbvl:8:3", "duplicate statement label P1")
}

func TestFallOffStatement(t *testing.T) {
	src := minimal(`  var t: ptr
  P1: t = Top`)
	wantDiag(t, src, "m.bbvl:8:3", "can fall off the end")
}

func TestUnreachableInstruction(t *testing.T) {
	src := minimal(`  P1: return ok; return ok`)
	wantDiag(t, src, "m.bbvl:7:18", "unreachable instruction")
}

func TestKindMismatchAssign(t *testing.T) {
	src := minimal(`  var t: ptr
  P1: t = 3; goto P1`)
	wantDiag(t, src, "m.bbvl:8:7", "cannot assign val expression to ptr location t")
}

func TestLocalSlotKindConflict(t *testing.T) {
	// Locals are positional across methods; slot 0 cannot be ptr in one
	// method and val in another.
	src := `model m
node cell { val: val  next: ptr }
globals { Top: ptr }
spec stack
method Push(v: vals) {
  var t: ptr
  P1: return ok
}
method Pop() {
  var x: val
  P2: return empty
}
`
	wantDiag(t, src, "m.bbvl:10:7", "register slot 0")
}

func TestTwoSharedWritesRejected(t *testing.T) {
	src := minimal(`  var t: ptr
  P1: Top = nil; G = 1; return ok`)
	wantDiag(t, src, "m.bbvl:8:18", "one shared access per atomic statement")
}

func TestFreshNodeWritesExempt(t *testing.T) {
	// Writes through a ptr local only ever assigned from alloc do not
	// count as shared accesses (the node is unpublished), so alloc +
	// field init + nothing else is a legal single statement.
	src := minimal(`  var n: ptr
  P1: n = alloc(cell); n.val = v; n.next = nil; goto P2
  P2: if cas(Top, nil, n) { return ok } else { goto P2 }`)
	if _, err := Load("m.bbvl", []byte(src)); err != nil {
		t.Fatalf("fresh-node initialization rejected: %v", err)
	}
}

func TestSpecShapeMissingMethod(t *testing.T) {
	src := `model m
globals { G: val }
spec queue
method Enq(v: vals) { P1: return ok }
`
	wantDiag(t, src, "m.bbvl:3:1", "spec queue requires a method named Deq")
}

func TestSpecShapeExtraMethod(t *testing.T) {
	src := `model m
globals { G: val }
spec stack
method Push(v: vals) { P1: return ok }
method Pop() { P2: return empty }
method Peek() { P3: return empty }
`
	wantDiag(t, src, "m.bbvl:6:1", "method Peek is not part of spec stack")
}

func TestReturnPointerRejected(t *testing.T) {
	src := minimal(`  var t: ptr
  P1: t = Top; return t`)
	wantDiag(t, src, "m.bbvl:8:23", "cannot return a pointer")
}

func TestUndefinedVariable(t *testing.T) {
	src := minimal(`  P1: bogus = 1; return ok`)
	wantDiag(t, src, "m.bbvl:7:7", "undefined variable bogus")
}

func TestReservedLocalName(t *testing.T) {
	src := minimal(`  var self: ptr
  P1: return ok`)
	wantDiag(t, src, "m.bbvl:7:7", `local name "self" is a reserved word`)
}

func TestCasOnLocalRejected(t *testing.T) {
	src := minimal(`  var t: ptr
  P1: if cas(t, nil, Top) { return ok } else { goto P1 }`)
	wantDiag(t, src, "m.bbvl:8:10", "cas target t is a local")
}

func TestDerefValVariable(t *testing.T) {
	src := minimal(`  P1: G = G.val; return ok`)
	wantDiag(t, src, "m.bbvl:7:11", "G is not a pointer")
}

func TestUnknownField(t *testing.T) {
	src := minimal(`  var t: ptr
  P1: t = Top; G = t.weight; return ok`)
	wantDiag(t, src, "m.bbvl:8:22", "no node kind declares a field named weight")
}

func TestAllocUnknownNodeKind(t *testing.T) {
	src := minimal(`  var n: ptr
  P1: n = alloc(box); return ok`)
	wantDiag(t, src, "m.bbvl:8:11", "alloc(box): no node kind named box")
}

func TestInitRestricted(t *testing.T) {
	src := `model m
node cell { val: val  next: ptr }
globals { Top: ptr }
spec stack
init { goto P1 }
method Push(v: vals) { P1: return ok }
method Pop() { P2: return empty }
`
	wantDiag(t, src, "m.bbvl:5:8", "init blocks allow only assignments")
}

func TestDumpMentionsLayout(t *testing.T) {
	m, err := LoadFile("../../examples/bbvl/treiber.bbvl")
	if err != nil {
		t.Fatal(err)
	}
	d := m.Dump()
	for _, want := range []string{
		"model treiber (spec stack)",
		"next (ptr) -> machine.Node.Next",
		"P3: if cas(Top, l0, l1) { return ok } else { goto P2 }",
		"heap: threads*ops + 1 cells",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("Dump missing %q:\n%s", want, d)
		}
	}
}

// TestLockAndOrderDiagnostics positions the misuse of lock, unlock, "<"
// and init locals.
func TestLockAndOrderDiagnostics(t *testing.T) {
	for _, tc := range []struct {
		name, src, pos, frag string
	}{
		{"less on a ptr", minimal(`  var t: ptr
  P1: t = Top; if t < nil { return ok } else { return ok }`), "m.bbvl:8:19", `"<" orders val operands; t is a pointer`},
		{"less on a ptr, right", minimal(`  var t: ptr
  P1: t = Top; if v < t { return ok } else { return ok }`), "m.bbvl:8:23", `"<" orders val operands; t is a pointer`},
		{"lock a ptr global", minimal(`  P1: lock(Top); return ok`), "m.bbvl:7:12", "lock(Top): Top is a ptr global"},
		{"unlock a val local", minimal(`  var x: val
  P1: unlock(x); return ok`), "m.bbvl:8:14", "unlock(x): x is a val local"},
		{"lock an undefined name", minimal(`  P1: lock(L); return ok`), "m.bbvl:7:12", "undefined variable L"},
		{"lock is reserved", minimal(`  var lock: ptr
  P1: return ok`), "m.bbvl:7:7", `local name "lock" is a reserved word`},
		{"alloc and a write of another value", minimal(`  var t: ptr
  var n: ptr
  P1: t = Top; n = alloc(cell); t.next = t; return ok`), "m.bbvl:9:33", "one shared access per atomic statement"},
		{"alloc, link and one more write", minimal(`  var t: ptr
  var n: ptr
  P1: t = Top; n = alloc(cell); t.next = n; G = 1; return ok`), "m.bbvl:9:33", "one shared access per atomic statement"},
		{"alloc into a global and a write", minimal(`  P1: Top = alloc(cell); G = 1; return ok`), "m.bbvl:7:26", "one shared access per atomic statement"},
		{"unlock and a write", minimal(`  P1: unlock(G); Top = nil; return ok`), "m.bbvl:7:18", "one shared access per atomic statement"},
		{"negative heap", strings.Replace(minimal(`  P1: return ok`), "heap totalops + 1", "heap -1", 1), "m.bbvl:4:6", "expected a non-negative integer"},
		{"init local shadows a global", strings.Replace(minimal(`  P1: return ok`), "spec stack", "spec stack\ninit { var G: ptr\n  G = alloc(cell) }", 1), "m.bbvl:6:12", "local G shadows a global"},
	} {
		t.Run(tc.name, func(t *testing.T) { wantDiag(t, tc.src, tc.pos, tc.frag) })
	}
}

// TestGranularityRule admits the two statement shapes of the lock-based
// lists: alloc-and-link, and releasing two locks at once.
func TestGranularityRule(t *testing.T) {
	for name, body := range map[string]string{
		"alloc and link": `  var t: ptr
  var n: ptr
  P1: t = Top; n = alloc(cell); n.val = v; n.next = t; t.next = n; return ok`,
		"two unlocks": `  var t: ptr
  P1: t = Top; unlock(t); unlock(G); return ok`,
		"lock then read": `  var t: ptr
  P1: t = Top; lock(t); if t.val < v { return ok } else { return ok }`,
	} {
		if _, err := Load("m.bbvl", []byte(minimal(body))); err != nil {
			t.Errorf("%s rejected: %v", name, err)
		}
	}
}

// TestInitLocalsAndNegativeLiterals builds two linked sentinels through
// an init local, with the head's key below every value.
func TestInitLocalsAndNegativeLiterals(t *testing.T) {
	src := strings.Replace(minimal(`  P1: return ok`), "spec stack", `spec stack
init {
  var t: ptr
  Top = alloc(cell); Top.val = -1
  t = alloc(cell); t.val = 7; Top.next = t
}`, 1)
	m, err := Load("m.bbvl", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	p := m.Build(Config{Threads: 1, Ops: 1})
	g := &machine.Global{Vars: make([]int32, len(p.Globals.Names)), Heap: make([]machine.Node, p.HeapCap+1)}
	p.Init(g)
	if h := g.Heap[g.Vars[0]]; h.Val != -1 || g.Heap[h.Next].Val != 7 {
		t.Errorf("init built head %+v, tail %+v", h, g.Heap[h.Next])
	}
}
