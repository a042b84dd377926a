package machine

import "testing"

// TestClassifyStmt pins the step classifier on hand-built IR: a write to
// a pointer-kinded location anywhere in the statement, including inside
// a nested if branch, and any alloc or free leave the fast path; writes
// confined to the thread's value locals are thread-local; other value
// writes keep the canonical form; a return outcome is always full.
func TestClassifyStmt(t *testing.T) {
	p := &Program{
		Name: "classify",
		Globals: Schema{
			Names: []string{"V", "P", "T"},
			Kinds: []VarKind{KVal, KPtr, KTagged},
		},
		HeapCap:    2,
		NLocals:    3,
		LocalKinds: []VarKind{KVal, KPtr, KTagged},
	}
	val, ptr, tagged := loc(LocLocal, 0, 0), loc(LocLocal, 1, 0), loc(LocLocal, 2, 0)
	gval, gptr, gtag := loc(LocGlobal, 0, 0), loc(LocGlobal, 1, 0), loc(LocGlobal, 2, 0)
	next, fval, lock := loc(LocField, 1, FieldNext), loc(LocField, 1, FieldVal), loc(LocField, 1, FieldLock)
	one := Operand{Kind: OperandLit, Lit: 1}
	read := func(l Loc) Operand { return Operand{Kind: OperandLoc, Loc: l} }
	assign := func(l Loc, a Operand) Instr { return Instr{Op: IRAssign, LHS: l, A: a} }
	gotoNext := Instr{Op: IRGoto, Target: 0}
	ifThen := func(then ...Instr) Instr {
		return Instr{Op: IRIfCmp, A: read(gval), B: one, Then: then}
	}
	ifElse := func(els ...Instr) Instr {
		return Instr{Op: IRIfCmp, A: read(gval), B: one, Else: els}
	}

	cases := []struct {
		name string
		ir   []Instr
		want stepClass
	}{
		{"no IR (closure)", nil, classFull},
		{"goto only", []Instr{gotoNext}, classLocal},
		{"val local write", []Instr{assign(val, read(gval)), gotoNext}, classLocal},
		{"val local write in both branches", []Instr{ifThen(assign(val, one)), ifElse(assign(val, read(fval))), gotoNext}, classLocal},
		{"val global write", []Instr{assign(gval, one), gotoNext}, classCanon},
		{"val field write", []Instr{assign(fval, read(val)), gotoNext}, classCanon},
		{"lock on a node", []Instr{{Op: IRLock, LHS: lock}, gotoNext}, classCanon},
		{"unlock of a val global", []Instr{{Op: IRUnlock, LHS: gval}, gotoNext}, classCanon},
		{"cas on a val global", []Instr{{Op: IRCas, LHS: gval, A: one, B: read(val)}, gotoNext}, classCanon},
		{"ptr local write", []Instr{assign(ptr, read(gptr)), gotoNext}, classFull},
		{"tagged local write", []Instr{assign(tagged, one), gotoNext}, classFull},
		{"tagged global write", []Instr{assign(gtag, one), gotoNext}, classFull},
		{"ptr field write", []Instr{assign(next, read(ptr)), gotoNext}, classFull},
		{"ptr local write nested in then", []Instr{ifThen(assign(val, one), assign(ptr, read(next))), gotoNext}, classFull},
		{"ptr local write nested in else", []Instr{ifElse(ifThen(assign(ptr, read(next)))), gotoNext}, classFull},
		{"alloc", []Instr{{Op: IRAlloc, LHS: ptr, AllocKind: 1}, gotoNext}, classFull},
		{"alloc nested in then", []Instr{ifThen(Instr{Op: IRAlloc, LHS: ptr, AllocKind: 1}), gotoNext}, classFull},
		{"free", []Instr{{Op: IRFree, LHS: ptr}, gotoNext}, classFull},
		{"cas on a ptr global", []Instr{{Op: IRCas, LHS: gptr, A: read(ptr), B: read(ptr)}, gotoNext}, classFull},
		{"if-cas on a ptr field", []Instr{{Op: IRIfCas, LHS: next, A: read(ptr), B: read(ptr), Then: []Instr{gotoNext}}, gotoNext}, classFull},
	}
	for _, c := range cases {
		if got := classifyStmt(p, c.ir); got != c.want {
			t.Errorf("%s: class %d, want %d", c.name, got, c.want)
		}
	}

	// The class is per outcome: a goto takes the statement's class, a
	// return is always full, whatever the statement writes.
	p.Methods = []Method{{Name: "m", Body: []Stmt{
		{Label: "L0", IR: []Instr{gotoNext}},
		{Label: "L1", IR: []Instr{ifThen(Instr{Op: IRReturn, A: one}), gotoNext}},
	}}}
	x := newExpander(p, 1)
	if got := x.tauClass(0, 0, outcome{pc: 0}); got != classLocal {
		t.Errorf("goto outcome of a goto-only statement: class %d, want %d", got, classLocal)
	}
	if got := x.tauClass(0, 1, outcome{pc: -1, ret: 1}); got != classFull {
		t.Errorf("return outcome: class %d, want %d", got, classFull)
	}
	if got := x.tauClass(0, 1, outcome{pc: 0}); got != classLocal {
		t.Errorf("goto outcome of a statement that may return: class %d, want %d", got, classLocal)
	}
}

// loc builds a location for TestClassifyStmt; field locations go
// through local 1 (the KPtr local).
func loc(kind LocKind, index int, f FieldSel) Loc {
	return Loc{Kind: kind, Index: index, Field: f, Name: "x"}
}
