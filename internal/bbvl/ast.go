package bbvl

// File is the parsed form of one BBVL model file: a named model carrying
// node-kind declarations, the shared globals, the heap bound, the
// specification selector, the implementation methods, and optionally an
// abstract program (Theorem 5.8) sharing the model's shared state.
type File struct {
	Pos  Pos // position of the "model" keyword
	Name string

	Nodes     []*NodeDecl
	Globals   []*VarDecl
	Heap      *HeapDecl // nil defaults to "heap totalops + 1"
	Spec      *SpecDecl // required; its absence is a check error
	LockBased bool
	Init      []Instr
	InitPos   Pos
	Methods   []*MethodDecl
	Abstract  *AbstractDecl

	// InitLocals are the init block's own locals, declared with var
	// before its instructions; they vanish once init has run.
	InitLocals []*VarDecl
}

// NodeDecl declares one heap node kind and its named fields.
type NodeDecl struct {
	Pos    Pos
	Name   string
	Fields []*FieldDecl
}

// FieldDecl declares one node field. Class is "val", "ptr" or "mark";
// the compiler assigns val fields to machine.Node{Val, Key, C, D} and
// ptr fields to {Next, A, B} in declaration order.
type FieldDecl struct {
	Pos   Pos
	Name  string
	Class string
}

// VarDecl declares a global variable or a method local. Kind is "val" or
// "ptr".
type VarDecl struct {
	Pos  Pos
	Name string
	Kind string
}

// HeapDecl bounds the allocatable heap: "heap totalops + N" scales with
// the instance's threads x ops budget; "heap N" is a fixed cell count.
type HeapDecl struct {
	Pos      Pos
	TotalOps bool
	Extra    int
}

// SpecDecl selects the single-atomic-block specification the model is
// verified against: "stack", "queue" or "set" (optionally "set
// contains").
type SpecDecl struct {
	Pos      Pos
	Kind     string
	Contains bool
}

// MethodDecl is one object method: an optional argument (over the
// configured value universe, or an explicit literal set) and a body of
// labeled atomic statements.
type MethodDecl struct {
	Pos     Pos
	Name    string
	ArgName string
	ArgPos  Pos
	ArgVals bool    // argument ranges over the configured value universe
	ArgSet  []int32 // explicit {v1, v2, ...} domain
	Locals  []*VarDecl
	Stmts   []*Stmt
}

// Stmt is one labeled atomic statement: a semicolon-separated
// micro-instruction sequence executed as a single τ step.
type Stmt struct {
	Pos   Pos
	Label string
	Body  []Instr
}

// AbstractDecl is the optional Theorem 5.8 abstract program. It inherits
// the model's globals, node kinds, heap bound and init block, and
// declares its own methods (whose atomic blocks are exempt from the
// one-shared-access discipline, exactly as the paper's abstractions
// are).
type AbstractDecl struct {
	Pos     Pos
	Methods []*MethodDecl
}

// Instr is one micro-instruction inside an atomic statement.
type Instr interface{ pos() Pos }

// Assign writes RHS (or a fresh allocation when AllocKind is set) into
// LHS.
type Assign struct {
	P         Pos
	LHS       LValue
	RHS       *Expr  // nil when AllocKind != ""
	AllocKind string // node kind name for "lhs = alloc(kind)"
	AllocPos  Pos
}

// Goto transfers control to the statement with the given label.
type Goto struct {
	P     Pos
	Label string
}

// Return finishes the method, yielding Val as the visible return value.
type Return struct {
	P   Pos
	Val *Expr
}

// Free releases the heap cell referenced by the named pointer variable.
type Free struct {
	P       Pos
	Name    string
	NamePos Pos
}

// Lock acquires (or, with Unlock set, releases) the lock named by a
// variable: the Lock word of the node a ptr local references, or a val
// global used as a lock word. An acquire blocks while the lock is held.
type Lock struct {
	P       Pos
	Name    string
	NamePos Pos
	Unlock  bool
}

// CasStmt is a compare-and-swap whose boolean result is discarded
// (helping CASes like MS queue's tail swing).
type CasStmt struct {
	P   Pos
	Cas *Cas
}

// If branches on Cond; a branch that does not end in goto/return falls
// through to the instructions after the If.
type If struct {
	P       Pos
	Cond    *CondExpr
	Then    []Instr
	Else    []Instr
	HasElse bool
}

// Cas describes cas(target, exp, new).
type Cas struct {
	P           Pos
	Target      LValue
	Exp, NewVal *Expr
}

// CondExpr is a branch condition: either a CAS (branching on success) or
// a comparison of two operands with "==", "!=" or "<" (val operands
// only).
type CondExpr struct {
	P    Pos
	Cas  *Cas
	X, Y *Expr
	Op   string
}

// LValue names a storage location: a variable (global or local), or a
// field of the node referenced by a variable.
type LValue struct {
	P        Pos
	Base     string
	Field    string // "" for a plain variable
	FieldPos Pos
}

// Expr is one operand: an integer literal, a named constant (ok, empty,
// true, false, null, nil, self), a variable read, the method argument,
// or a field read through a pointer variable.
type Expr struct {
	P        Pos
	IsInt    bool
	Int      int32
	Name     string
	Field    string // "" unless a field read
	FieldPos Pos
}

func (i *Assign) pos() Pos  { return i.P }
func (i *Goto) pos() Pos    { return i.P }
func (i *Return) pos() Pos  { return i.P }
func (i *Free) pos() Pos    { return i.P }
func (i *Lock) pos() Pos    { return i.P }
func (i *CasStmt) pos() Pos { return i.P }
func (i *If) pos() Pos      { return i.P }
