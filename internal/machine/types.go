// Package machine models concurrent objects as programs of guarded atomic
// statements over a shared heap, and generates their labeled transition
// systems by exhaustive interleaving exploration with most general
// clients (Section II.B of the paper): each of k threads repeatedly
// invokes the object's methods in any order with all possible parameters,
// bounded by a number of operations per thread.
//
// The package replaces the paper's LNT models plus CADP's state-space
// generator. One Stmt is one atomic step (one τ transition); method call
// and return are separate visible transitions, so a method with a single
// atomic statement produces exactly the call–τ–return shape of a
// linearizable specification (Section II.C).
//
// Shared state is a fixed vector of global variables plus a bounded heap
// of uniform nodes. Before hashing, every successor state is canonicalized
// by renaming reachable heap nodes in deterministic traversal order and
// dropping garbage, which both merges symmetric states and models garbage
// collection; algorithms that manage memory explicitly (hazard pointers)
// keep nodes reachable through the relevant globals and locals, so
// explicit reuse — and hence ABA behaviour — is preserved.
package machine

import "fmt"

// TagBase splits the value space of "tagged" variables: a tagged variable
// holds a plain value below TagBase, or a heap reference Ref(p) at or
// above it. Tagged variables model memory words that store either a value
// or a descriptor pointer (CCAS, RDCSS).
const TagBase = 64

// IsRef reports whether a tagged value is a heap reference.
func IsRef(v int32) bool { return v >= TagBase }

// Ref converts heap index p (> 0) into a tagged reference value.
func Ref(p int32) int32 { return p + TagBase }

// Deref extracts the heap index from a tagged reference value.
func Deref(v int32) int32 { return v - TagBase }

// Well-known data values shared by specifications and implementations.
// They live outside the small non-negative range used for object data.
const (
	// ValEmpty is returned by Deq/Pop on an empty container.
	ValEmpty int32 = -2
	// ValOK is returned by operations that always succeed (Enq, Push).
	ValOK int32 = -3
	// ValTrue and ValFalse are boolean results (set operations).
	ValTrue  int32 = 1
	ValFalse int32 = 0
	// ValNull is a generic "no value" placeholder.
	ValNull int32 = -4
)

// FormatValue renders a data value, giving the well-known constants their
// conventional names.
func FormatValue(v int32) string {
	switch v {
	case ValEmpty:
		return "empty"
	case ValOK:
		return "ok"
	case ValNull:
		return "null"
	default:
		return fmt.Sprintf("%d", v)
	}
}

// FormatBool renders a boolean result value.
func FormatBool(v int32) string {
	if v == ValFalse {
		return "false"
	}
	return "true"
}

// VarKind describes how a global or local variable participates in heap
// canonicalization.
type VarKind uint8

const (
	// KVal holds a plain value; never renamed.
	KVal VarKind = iota + 1
	// KPtr holds a heap index (0 = nil); renamed during canonicalization
	// and treated as a root for reachability.
	KPtr
	// KTagged holds either a plain value (< TagBase) or a heap reference
	// (>= TagBase); the reference case is renamed and acts as a root.
	KTagged
)

// Node is the uniform heap cell. Kind 0 marks a free cell; algorithms
// assign positive kinds to live cells. Next, A and B are pointer fields
// (heap indices, 0 = nil) that participate in canonical renaming; Val,
// Key, C and D are plain values; Mark is a mark/flag bit (e.g. the
// logical-deletion bit of the Harris–Michael list); Lock holds 0 when
// free or threadID+1 when held.
type Node struct {
	Kind       int32
	Val, Key   int32
	Next, A, B int32
	C, D       int32
	Mark       bool
	Lock       int32
}

// Global is the shared state of one exploration state: the global
// variable vector plus the heap. Index 0 of the heap is reserved so that
// 0 can mean nil.
type Global struct {
	Vars []int32
	Heap []Node
}

// Clone returns a deep copy.
func (g *Global) Clone() *Global {
	ng := &Global{
		Vars: make([]int32, len(g.Vars)),
		Heap: make([]Node, len(g.Heap)),
	}
	copy(ng.Vars, g.Vars)
	copy(ng.Heap, g.Heap)
	return ng
}

// Schema names the global variables of a program and assigns their kinds.
type Schema struct {
	Names []string
	Kinds []VarKind
	// Pos holds the declaration position of each global when the program
	// came from BBVL source; nil for hand-coded programs.
	Pos []Pos
}

// Index returns the index of a named global, or -1.
func (s *Schema) Index(name string) int {
	for i, n := range s.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// Stmt is one atomic statement of a method body. Exec runs on a private
// clone of the shared state and the thread's locals; it mutates them in
// place and finishes by calling Ctx.Goto or Ctx.Return (possibly several
// times for a nondeterministic choice, in which case it must not have
// mutated anything). Calling neither blocks the thread in this state —
// the statement is a guard that is currently not enabled (used to model
// blocking lock acquisition).
type Stmt struct {
	// Label names the statement in diagnostics, conventionally the line
	// number of the paper's pseudo-code (e.g. "L28").
	Label string
	Exec  func(c *Ctx)
	// Pos is the statement's source position when the program came from
	// BBVL; the zero Pos for hand-coded programs.
	Pos Pos
	// IR is the statement's compiled micro-instruction sequence when the
	// program came from BBVL; nil for hand-coded programs, whose Exec
	// closures are opaque. When non-nil, Exec is equivalent to
	// RunIR(c, IR) — static analyzers read IR, execution uses Exec.
	IR []Instr
}

// Method is one object method: a name, the possible argument values the
// most general client will invoke it with (nil for a no-argument method)
// and the body.
type Method struct {
	Name string
	Args []int32
	Body []Stmt
	// Pos is the method's declaration position when the program came
	// from BBVL; the zero Pos for hand-coded programs.
	Pos Pos
}

// Program is a complete object model: shared-state schema, per-thread
// local count, methods and initialization.
type Program struct {
	Name string
	// Globals describes the shared variables.
	Globals Schema
	// HeapCap is the number of allocatable heap cells (excluding the
	// reserved nil cell). Alloc panics when it is exceeded, which
	// indicates a mis-sized instance rather than a recoverable condition.
	HeapCap int
	// NLocals is the number of per-thread local registers; they are
	// zeroed at every method call.
	NLocals int
	// LocalKinds assigns canonicalization kinds to the locals; nil means
	// all KVal.
	LocalKinds []VarKind
	// Methods in declaration order; the most general client picks among
	// them nondeterministically.
	Methods []Method
	// Init populates the initial shared state (sentinels etc.); may be
	// nil.
	Init func(g *Global)
	// FormatArg renders a call argument for action names; nil uses
	// FormatValue.
	FormatArg func(m *Method, arg int32) string
	// FormatRet renders a return value for action names; nil uses
	// FormatValue.
	FormatRet func(m *Method, ret int32) string
	// Source is the file the program was compiled from, when it came
	// from BBVL; empty for hand-coded programs.
	Source string
	// InitIR is the micro-instruction form of Init when the program came
	// from BBVL; nil for hand-coded programs.
	InitIR []Instr
}

// Validate checks internal consistency of the program definition.
func (p *Program) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("machine: program has no name")
	}
	if len(p.Globals.Names) != len(p.Globals.Kinds) {
		return fmt.Errorf("machine: %s: schema names/kinds mismatch", p.Name)
	}
	if p.LocalKinds != nil && len(p.LocalKinds) != p.NLocals {
		return fmt.Errorf("machine: %s: LocalKinds length %d != NLocals %d", p.Name, len(p.LocalKinds), p.NLocals)
	}
	if len(p.Methods) == 0 {
		return fmt.Errorf("machine: %s: no methods", p.Name)
	}
	seen := map[string]bool{}
	for _, m := range p.Methods {
		if m.Name == "" {
			return fmt.Errorf("machine: %s: unnamed method", p.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("machine: %s: duplicate method %s", p.Name, m.Name)
		}
		seen[m.Name] = true
		if len(m.Body) == 0 {
			return fmt.Errorf("machine: %s: method %s has empty body", p.Name, m.Name)
		}
	}
	return nil
}

// localKind returns the kind of local register i.
func (p *Program) localKind(i int) VarKind {
	if p.LocalKinds == nil {
		return KVal
	}
	return p.LocalKinds[i]
}

// Ctx is the execution context handed to a Stmt: the executing thread,
// the call argument, and private mutable copies of the shared state and
// the thread's locals.
type Ctx struct {
	// T is the zero-based thread index. Lock fields store T+1.
	T int
	// Arg is the argument of the current method invocation.
	Arg int32
	// G is the thread-private clone of the shared state; mutate freely.
	G *Global
	// L are the thread's local registers.
	L []int32

	outs []outcome
}

type outcome struct {
	pc  int32 // -1 means return
	ret int32
}

// Goto finishes the statement, transferring control to the statement at
// index pc of the method body.
func (c *Ctx) Goto(pc int) {
	c.outs = append(c.outs, outcome{pc: int32(pc)})
}

// Return finishes the statement and the method; the visible return action
// with value v is emitted as a separate subsequent transition.
func (c *Ctx) Return(v int32) {
	c.outs = append(c.outs, outcome{pc: -1, ret: v})
}

// Node returns the heap cell at index p, which must be a valid non-nil
// reference.
func (c *Ctx) Node(p int32) *Node { return &c.G.Heap[p] }

// V reads global variable i.
func (c *Ctx) V(i int) int32 { return c.G.Vars[i] }

// SetV writes global variable i.
func (c *Ctx) SetV(i int, v int32) { c.G.Vars[i] = v }

// CASV performs compare-and-swap on global variable i, returning whether
// the swap happened. The whole statement is atomic anyway; the helper
// only makes algorithm code read like its pseudo-code.
func (c *Ctx) CASV(i int, exp, val int32) bool {
	if c.G.Vars[i] != exp {
		return false
	}
	c.G.Vars[i] = val
	return true
}

// Alloc takes the lowest free heap cell, sets its kind and returns its
// index. Reusing the lowest free cell models memory reuse (and therefore
// ABA) for algorithms that free explicitly. It panics when the heap
// capacity is exhausted: instances must size HeapCap for their operation
// bound, and failure to do so is a programming error.
func (c *Ctx) Alloc(kind int32) int32 {
	for i := 1; i < len(c.G.Heap); i++ {
		if c.G.Heap[i].Kind == 0 {
			c.G.Heap[i] = Node{Kind: kind}
			return int32(i)
		}
	}
	panic(fmt.Sprintf("machine: heap exhausted (cap %d); instance under-sized", len(c.G.Heap)-1))
}

// Free releases a heap cell for reuse.
func (c *Ctx) Free(p int32) { c.G.Heap[p] = Node{} }

// Self is the lock token of the executing thread.
func (c *Ctx) Self() int32 { return int32(c.T) + 1 }
