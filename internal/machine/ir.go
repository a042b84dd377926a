package machine

import (
	"fmt"
	"strings"
)

// This file defines the portable micro-instruction form (IR) that the
// BBVL compiler lowers statements into, together with its interpreter.
// Programs built from BBVL source attach the IR (and source positions)
// to their statements as metadata; static-analysis passes (internal/vet)
// read it to build control-flow graphs and run dataflow without
// re-parsing the source. Hand-coded registry programs have no IR — their
// statements are opaque Go closures — and analyzers that need the IR
// simply skip them.

// Pos is a position in a model source file, 1-based in both line and
// column. File is the (virtual) filename the source was loaded under.
// The zero Pos means "no source position" (hand-coded programs).
type Pos struct {
	File string
	Line int
	Col  int
}

// String renders the conventional file:line:col form.
func (p Pos) String() string { return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col) }

// IsValid reports whether the position refers to real source.
func (p Pos) IsValid() bool { return p.Line > 0 }

// FieldSel selects one field of Node. The BBVL compiler assigns a
// model's named fields to concrete Node fields by class and declaration
// order: val fields to Val, Key, C, D; ptr fields to Next, A, B; at most
// one mark field to Mark. Lock is never a named field: only the lock and
// unlock instructions reach it.
type FieldSel uint8

const (
	FieldVal FieldSel = iota
	FieldKey
	FieldC
	FieldD
	FieldNext
	FieldA
	FieldB
	FieldMark
	FieldLock

	// NumFields counts the selectors.
	NumFields = int(FieldLock) + 1
)

var fieldSelNames = [...]string{"Val", "Key", "C", "D", "Next", "A", "B", "Mark", "Lock"}

// String names the machine.Node field the selector picks.
func (f FieldSel) String() string {
	if int(f) < len(fieldSelNames) {
		return fieldSelNames[f]
	}
	return fmt.Sprintf("FieldSel(%d)", uint8(f))
}

// IsPtr reports whether the selected field holds a heap reference.
func (f FieldSel) IsPtr() bool { return f == FieldNext || f == FieldA || f == FieldB }

// LocKind classifies a storage location.
type LocKind uint8

const (
	LocGlobal LocKind = iota
	LocLocal
	LocField
)

// Loc is a resolved storage location: a global, a local register, or a
// node field reached through a global or local pointer variable.
type Loc struct {
	Kind LocKind
	// Index is the global or local index; for LocField, the index of the
	// base variable (global when BaseGlobal, local otherwise).
	Index      int
	BaseGlobal bool
	Field      FieldSel
	Pos        Pos
	// Name is the source spelling, used in runtime panics and dumps.
	Name string
}

// OperandKind classifies an operand.
type OperandKind uint8

const (
	OperandLit OperandKind = iota
	OperandArg
	OperandSelf
	OperandLoc
)

// Operand is a resolved operand: a literal, the method argument, the
// thread's lock token, or a storage location read.
type Operand struct {
	Kind OperandKind
	Lit  int32
	Loc  Loc
}

// IROp enumerates the micro-operations.
type IROp uint8

const (
	IRAssign IROp = iota
	IRAlloc
	IRFree
	IRCas
	IRGoto
	IRReturn
	IRIfCmp
	IRIfCas
	// IRLock acquires the lock at LHS — a node's Lock field or a val
	// global — by storing the thread's token; while another thread (or
	// this one) holds it, the statement blocks: it emits no outcome, so
	// the thread has no transition in this state.
	IRLock
	// IRUnlock releases the lock at LHS, which must hold the thread's
	// token; releasing a lock the thread does not hold is a model fault.
	IRUnlock
)

// Instr is one micro-instruction. The interpreter RunIR executes a
// []Instr per atomic statement.
type Instr struct {
	Op IROp
	// LHS is the IRAssign/IRAlloc destination and the IRFree/IRCas target.
	LHS Loc
	// A is the IRAssign RHS, the return value, the cas expected value or
	// the comparison's left operand; B is the cas new value or the
	// comparison's right operand.
	A, B Operand
	// Negate makes an IRIfCmp condition "!=" instead of "=="; Less makes
	// it "<" (the checker never sets both).
	Negate bool
	Less   bool
	// Target is the IRGoto destination statement index.
	Target    int
	AllocKind int32
	// Then and Else are the branches of IRIfCmp/IRIfCas.
	Then, Else []Instr
	Pos        Pos
}

// RunIR interprets one micro-instruction sequence against the statement
// context, returning whether the statement finished: control transferred
// (goto or return), or a lock blocked it with no outcome. The BBVL
// checker guarantees every top-level statement sequence terminates, so a
// statement emits exactly one outcome unless it blocks.
func RunIR(c *Ctx, seq []Instr) bool {
	for i := range seq {
		in := &seq[i]
		switch in.Op {
		case IRAssign:
			storeLoc(c, &in.LHS, evalOp(c, &in.A))
		case IRAlloc:
			storeLoc(c, &in.LHS, c.Alloc(in.AllocKind))
		case IRFree:
			p := loadLoc(c, &in.LHS)
			if !validRef(c, p) {
				panic(fmt.Sprintf("bbvl: %s: free(%s): nil or invalid pointer", in.Pos, in.LHS.Name))
			}
			c.Free(p)
		case IRCas:
			doCas(c, in)
		case IRGoto:
			c.Goto(in.Target)
			return true
		case IRReturn:
			c.Return(evalOp(c, &in.A))
			return true
		case IRIfCmp:
			a, b := evalOp(c, &in.A), evalOp(c, &in.B)
			cond := a == b
			switch {
			case in.Less:
				cond = a < b
			case in.Negate:
				cond = !cond
			}
			if execBranch(c, in, cond) {
				return true
			}
		case IRIfCas:
			if execBranch(c, in, doCas(c, in)) {
				return true
			}
		case IRLock:
			if loadLoc(c, &in.LHS) != 0 {
				return true // held: blocked, no outcome
			}
			storeLoc(c, &in.LHS, c.Self())
		case IRUnlock:
			if loadLoc(c, &in.LHS) != c.Self() {
				panic(fmt.Sprintf("bbvl: %s: unlock(%s): thread %d does not hold the lock", in.Pos, in.LHS.Name, c.T+1))
			}
			storeLoc(c, &in.LHS, 0)
		}
	}
	return false
}

// execBranch runs the taken branch of an if; a branch that does not
// transfer control falls through to the instructions after the if.
func execBranch(c *Ctx, in *Instr, cond bool) bool {
	if cond {
		return RunIR(c, in.Then)
	}
	return RunIR(c, in.Else)
}

// doCas performs compare-and-swap on a shared location.
func doCas(c *Ctx, in *Instr) bool {
	exp := evalOp(c, &in.A)
	nv := evalOp(c, &in.B)
	l := &in.LHS
	if l.Kind == LocGlobal {
		return c.CASV(l.Index, exp, nv)
	}
	n := nodeDeref(c, l)
	cur := fieldGet(n, l.Field)
	if cur != exp {
		return false
	}
	fieldSet(n, l.Field, nv)
	return true
}

// evalOp evaluates one operand.
func evalOp(c *Ctx, o *Operand) int32 {
	switch o.Kind {
	case OperandLit:
		return o.Lit
	case OperandArg:
		return c.Arg
	case OperandSelf:
		return c.Self()
	default:
		return loadLoc(c, &o.Loc)
	}
}

// loadLoc reads a storage location.
func loadLoc(c *Ctx, l *Loc) int32 {
	switch l.Kind {
	case LocGlobal:
		return c.V(l.Index)
	case LocLocal:
		return c.L[l.Index]
	default:
		return fieldGet(nodeDeref(c, l), l.Field)
	}
}

// storeLoc writes a storage location.
func storeLoc(c *Ctx, l *Loc, v int32) {
	switch l.Kind {
	case LocGlobal:
		c.SetV(l.Index, v)
	case LocLocal:
		c.L[l.Index] = v
	default:
		fieldSet(nodeDeref(c, l), l.Field, v)
	}
}

// nodeDeref resolves a field location's base pointer to its heap node,
// panicking with the source position on a nil or dangling pointer (the
// api layer converts the panic into a job error for user models).
func nodeDeref(c *Ctx, l *Loc) *Node {
	var p int32
	if l.BaseGlobal {
		p = c.V(l.Index)
	} else {
		p = c.L[l.Index]
	}
	if !validRef(c, p) {
		panic(fmt.Sprintf("bbvl: %s: %s: nil or invalid pointer dereference", l.Pos, l.Name))
	}
	return c.Node(p)
}

// validRef reports whether p is a live heap reference.
func validRef(c *Ctx, p int32) bool {
	return p > 0 && int(p) < len(c.G.Heap) && c.G.Heap[p].Kind != 0
}

// fieldGet reads one Node field.
func fieldGet(n *Node, f FieldSel) int32 {
	switch f {
	case FieldVal:
		return n.Val
	case FieldKey:
		return n.Key
	case FieldC:
		return n.C
	case FieldD:
		return n.D
	case FieldNext:
		return n.Next
	case FieldA:
		return n.A
	case FieldB:
		return n.B
	case FieldLock:
		return n.Lock
	default:
		if n.Mark {
			return 1
		}
		return 0
	}
}

// fieldSet writes one Node field.
func fieldSet(n *Node, f FieldSel, v int32) {
	switch f {
	case FieldVal:
		n.Val = v
	case FieldKey:
		n.Key = v
	case FieldC:
		n.C = v
	case FieldD:
		n.D = v
	case FieldNext:
		n.Next = v
	case FieldA:
		n.A = v
	case FieldB:
		n.B = v
	case FieldLock:
		n.Lock = v
	default:
		n.Mark = v != 0
	}
}

// Fingerprint renders a position-independent structural signature of a
// program: schema, capacities, method shapes and the full IR of every
// statement, excluding source positions and the uncomparable Exec
// closures. Two programs compiled from sources that differ only in
// layout (whitespace, statement positions) fingerprint identically,
// which is what the BBVL format round-trip test checks.
func Fingerprint(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", p.Name)
	for i, n := range p.Globals.Names {
		fmt.Fprintf(&b, "global %d %s kind=%d\n", i, n, p.Globals.Kinds[i])
	}
	fmt.Fprintf(&b, "heapcap %d nlocals %d\n", p.HeapCap, p.NLocals)
	for i, k := range p.LocalKinds {
		fmt.Fprintf(&b, "local %d kind=%d\n", i, k)
	}
	fpSeq(&b, "init", p.InitIR)
	for mi := range p.Methods {
		m := &p.Methods[mi]
		fmt.Fprintf(&b, "method %s args=%v\n", m.Name, m.Args)
		for si := range m.Body {
			fpSeq(&b, fmt.Sprintf("  %s", m.Body[si].Label), m.Body[si].IR)
		}
	}
	return b.String()
}

func fpSeq(b *strings.Builder, head string, seq []Instr) {
	fmt.Fprintf(b, "%s:", head)
	for i := range seq {
		fpInstr(b, &seq[i])
	}
	b.WriteString("\n")
}

func fpInstr(b *strings.Builder, in *Instr) {
	fmt.Fprintf(b, " {op=%d lhs=%s a=%s b=%s neg=%t less=%t tgt=%d alloc=%d",
		in.Op, fpLoc(&in.LHS), fpOperand(&in.A), fpOperand(&in.B), in.Negate, in.Less, in.Target, in.AllocKind)
	if len(in.Then) > 0 {
		b.WriteString(" then=[")
		for i := range in.Then {
			fpInstr(b, &in.Then[i])
		}
		b.WriteString("]")
	}
	if len(in.Else) > 0 {
		b.WriteString(" else=[")
		for i := range in.Else {
			fpInstr(b, &in.Else[i])
		}
		b.WriteString("]")
	}
	b.WriteString("}")
}

func fpLoc(l *Loc) string {
	return fmt.Sprintf("(%d,%d,%t,%d,%s)", l.Kind, l.Index, l.BaseGlobal, l.Field, l.Name)
}

func fpOperand(o *Operand) string {
	if o.Kind == OperandLoc {
		return fmt.Sprintf("(%d,%s)", o.Kind, fpLoc(&o.Loc))
	}
	return fmt.Sprintf("(%d,%d)", o.Kind, o.Lit)
}
