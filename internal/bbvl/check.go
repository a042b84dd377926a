package bbvl

import (
	"repro/internal/machine"
)

// The checker lowers BBVL statements into the machine package's
// micro-instruction form (machine.Instr); see internal/machine/ir.go for
// the IR definition and interpreter. The compiler assigns a model's
// named fields to concrete machine.Node fields by class and declaration
// order: val fields to Val, Key, C, D; ptr fields to Next, A, B; at most
// one mark field to Mark.
var valFieldSlots = [...]machine.FieldSel{machine.FieldVal, machine.FieldKey, machine.FieldC, machine.FieldD}
var ptrFieldSlots = [...]machine.FieldSel{machine.FieldNext, machine.FieldA, machine.FieldB}

// rMethod is one compiled method template.
type rMethod struct {
	name    string
	argVals bool
	argSet  []int32
	stmts   []rStmt
	pos     Pos
}

type rStmt struct {
	label string
	body  []machine.Instr
	pos   Pos
}

// rProgram is a compiled program template, instantiated per
// Config by compile.go.
type rProgram struct {
	name         string
	source       string
	globalNames  []string
	globalKinds  []machine.VarKind
	globalPos    []machine.Pos
	nlocals      int
	localKinds   []machine.VarKind
	heapTotalOps bool
	heapExtra    int
	methods      []rMethod
	init         []machine.Instr
	initLocals   int
}

// Model is a checked and compiled BBVL model, ready to instantiate
// machine.Program values for any instance size.
type Model struct {
	// Name is the model's declared name.
	Name string
	// LockBased marks models whose liveness check is deadlock-freedom
	// rather than lock-freedom (the lockbased declaration).
	LockBased bool
	// SpecKind is "stack", "queue" or "set"; SpecContains adds the
	// Contains method to a set specification.
	SpecKind     string
	SpecContains bool
	// HasAbstract reports an abstract (Theorem 5.8) program.
	HasAbstract bool

	file *File
	prog *rProgram
	abs  *rProgram
}

// reservedNames may not name globals, locals, arguments or node kinds:
// they are keywords or built-in constants of the language.
var reservedNames = map[string]bool{
	"model": true, "node": true, "globals": true, "heap": true,
	"spec": true, "init": true, "method": true, "abstract": true,
	"var": true, "goto": true, "return": true, "if": true, "else": true,
	"cas": true, "alloc": true, "free": true, "lockbased": true,
	"lock": true, "unlock": true,
	"vals": true, "totalops": true, "self": true, "nil": true,
	"ok": true, "empty": true, "true": true, "false": true, "null": true,
	"val": true, "ptr": true, "mark": true, "stack": true, "queue": true,
	"set": true, "contains": true,
}

// specShapes maps each spec kind to the method signatures the model must
// expose so that its visible actions coincide with the specification's.
var specShapes = map[string][]struct {
	name   string
	hasArg bool
}{
	"stack": {{"Push", true}, {"Pop", false}},
	"queue": {{"Enq", true}, {"Deq", false}},
	"set":   {{"Add", true}, {"Remove", true}},
}

// fieldInfo is a resolved node field.
type fieldInfo struct {
	acc   machine.FieldSel
	class string
	node  string
}

// checker resolves and validates a parsed File, collecting every
// diagnostic rather than stopping at the first.
type checker struct {
	file *File
	errs ErrorList

	globalIdx  map[string]int
	globalKind []string // "val" | "ptr", by index
	nodeIdx    map[string]int32
	fields     map[string]fieldInfo
}

// Check resolves, typechecks and compiles a parsed model. On failure it
// returns an ErrorList with every positioned diagnostic, sorted by
// source position so the output is deterministic.
func Check(f *File) (*Model, error) {
	c := &checker{
		file:      f,
		globalIdx: map[string]int{},
		nodeIdx:   map[string]int32{},
		fields:    map[string]fieldInfo{},
	}
	c.checkNodes()
	c.checkGlobals()
	if f.Spec == nil {
		c.errs.errorf(f.Pos, "model %s is missing its spec block (declare: spec stack | queue | set [contains])", f.Name)
	}
	if len(f.Methods) == 0 {
		c.errs.errorf(f.Pos, "model %s declares no methods", f.Name)
	}
	prog := c.checkProgram(f.Name, f.Methods, false)
	prog.init, prog.initLocals = c.checkInit(f.InitLocals, f.Init)
	var abs *rProgram
	if f.Abstract != nil {
		if len(f.Abstract.Methods) == 0 {
			c.errs.errorf(f.Abstract.Pos, "abstract block declares no methods")
		}
		abs = c.checkProgram(f.Name+"-abstract", f.Abstract.Methods, true)
		abs.init, abs.initLocals = prog.init, prog.initLocals
	}
	if f.Spec != nil {
		c.checkSpecShape(f.Spec, f.Methods)
	}
	c.errs.Sort()
	if err := c.errs.toError(); err != nil {
		return nil, err
	}
	m := &Model{
		Name:        f.Name,
		LockBased:   f.LockBased,
		SpecKind:    f.Spec.Kind,
		HasAbstract: abs != nil,
		file:        f,
		prog:        prog,
		abs:         abs,
	}
	m.SpecContains = f.Spec.Contains
	return m, nil
}

func (c *checker) reserved(pos Pos, what, name string) bool {
	if reservedNames[name] {
		c.errs.errorf(pos, "%s name %q is a reserved word", what, name)
		return true
	}
	return false
}

func (c *checker) checkNodes() {
	for _, n := range c.file.Nodes {
		if _, dup := c.nodeIdx[n.Name]; dup {
			c.errs.errorf(n.Pos, "duplicate node kind %s", n.Name)
			continue
		}
		if c.reserved(n.Pos, "node kind", n.Name) {
			continue
		}
		c.nodeIdx[n.Name] = int32(len(c.nodeIdx)) + 1
		counts := map[string]int{}
		seen := map[string]Pos{}
		for _, fd := range n.Fields {
			if first, dup := seen[fd.Name]; dup {
				c.errs.errorf(fd.Pos, "duplicate field %s in node %s (first declared at %s)", fd.Name, n.Name, first)
				continue
			}
			seen[fd.Name] = fd.Pos
			i := counts[fd.Class]
			counts[fd.Class]++
			var acc machine.FieldSel
			switch fd.Class {
			case "val":
				if i >= len(valFieldSlots) {
					c.errs.errorf(fd.Pos, "field index out of range: node %s declares more than %d val fields (machine.Node provides Val, Key, C, D)", n.Name, len(valFieldSlots))
					continue
				}
				acc = valFieldSlots[i]
			case "ptr":
				if i >= len(ptrFieldSlots) {
					c.errs.errorf(fd.Pos, "field index out of range: node %s declares more than %d ptr fields (machine.Node provides Next, A, B)", n.Name, len(ptrFieldSlots))
					continue
				}
				acc = ptrFieldSlots[i]
			case "mark":
				if i >= 1 {
					c.errs.errorf(fd.Pos, "field index out of range: node %s declares more than one mark field", n.Name)
					continue
				}
				acc = machine.FieldMark
			}
			// Field names are resolved without knowing the node kind a
			// pointer refers to, so a name shared between node kinds must
			// map to the same machine.Node field in all of them.
			if prev, ok := c.fields[fd.Name]; ok {
				if prev.acc != acc {
					c.errs.errorf(fd.Pos, "field %s maps to machine.Node.%s here but to machine.Node.%s in node %s; field names must resolve uniquely across node kinds",
						fd.Name, acc, prev.acc, prev.node)
				}
				continue
			}
			c.fields[fd.Name] = fieldInfo{acc: acc, class: fd.Class, node: n.Name}
		}
	}
}

func (c *checker) checkGlobals() {
	for _, g := range c.file.Globals {
		if _, dup := c.globalIdx[g.Name]; dup {
			c.errs.errorf(g.Pos, "duplicate global %s", g.Name)
			continue
		}
		if c.reserved(g.Pos, "global", g.Name) {
			continue
		}
		c.globalIdx[g.Name] = len(c.globalKind)
		c.globalKind = append(c.globalKind, g.Kind)
	}
}

// methodScope is the per-method resolution environment.
type methodScope struct {
	c        *checker
	method   *MethodDecl
	argName  string
	localIdx map[string]int
	locals   []*VarDecl
	labels   map[string]int
	fresh    map[int]bool // local slot -> only ever assigned from alloc
	exempt   bool         // abstract methods skip the access discipline
}

// checkProgram resolves a method list (the implementation, or the
// abstract program) into a compiled template. Abstract methods are
// exempt from the one-shared-access-per-statement discipline.
func (c *checker) checkProgram(name string, methods []*MethodDecl, exempt bool) *rProgram {
	p := &rProgram{name: name, source: c.file.Pos.File}
	p.globalNames = make([]string, len(c.globalKind))
	p.globalKinds = make([]machine.VarKind, len(c.globalKind))
	p.globalPos = make([]machine.Pos, len(c.globalKind))
	for _, g := range c.file.Globals {
		i, ok := c.globalIdx[g.Name]
		if !ok {
			continue
		}
		p.globalNames[i] = g.Name
		p.globalKinds[i] = kindOf(g.Kind)
		p.globalPos[i] = g.Pos
	}
	heap := c.file.Heap
	if heap == nil {
		p.heapTotalOps, p.heapExtra = true, 1
	} else {
		p.heapTotalOps, p.heapExtra = heap.TotalOps, heap.Extra
	}

	seen := map[string]Pos{}
	var localKinds []machine.VarKind
	var localKindSrc []*VarDecl
	for _, m := range methods {
		if first, dup := seen[m.Name]; dup {
			c.errs.errorf(m.Pos, "duplicate method %s (first declared at %s)", m.Name, first)
			continue
		}
		seen[m.Name] = m.Pos
		if len(m.Stmts) == 0 {
			c.errs.errorf(m.Pos, "method %s has no statements", m.Name)
		}
		sc := c.newMethodScope(m, exempt)
		// Locals are positional: the i-th declared local of every method
		// shares register slot i, so their kinds must agree.
		for i, l := range m.Locals {
			k := kindOf(l.Kind)
			if i == len(localKinds) {
				localKinds = append(localKinds, k)
				localKindSrc = append(localKindSrc, l)
			} else if localKinds[i] != k {
				c.errs.errorf(l.Pos, "local %s occupies register slot %d as %s, but %s at %s declared that slot as %s (locals are positional across methods)",
					l.Name, i, l.Kind, localKindSrc[i].Name, localKindSrc[i].Pos, localKindSrc[i].Kind)
			}
		}
		p.methods = append(p.methods, sc.resolveMethod())
	}
	p.nlocals = len(localKinds)
	p.localKinds = localKinds
	return p
}

func kindOf(k string) machine.VarKind {
	if k == "ptr" {
		return machine.KPtr
	}
	return machine.KVal
}

func (c *checker) newMethodScope(m *MethodDecl, exempt bool) *methodScope {
	sc := &methodScope{
		c:        c,
		method:   m,
		localIdx: map[string]int{},
		labels:   map[string]int{},
		fresh:    map[int]bool{},
		exempt:   exempt,
	}
	if m.ArgName != "" {
		if !c.reserved(m.ArgPos, "argument", m.ArgName) {
			if _, clash := c.globalIdx[m.ArgName]; clash {
				c.errs.errorf(m.ArgPos, "argument %s shadows a global", m.ArgName)
			} else {
				sc.argName = m.ArgName
			}
		}
		if !m.ArgVals && len(m.ArgSet) == 0 {
			c.errs.errorf(m.ArgPos, "argument %s has an empty domain", m.ArgName)
		}
	}
	for _, l := range m.Locals {
		if _, dup := sc.localIdx[l.Name]; dup {
			c.errs.errorf(l.Pos, "duplicate local %s in method %s", l.Name, m.Name)
			continue
		}
		if c.reserved(l.Pos, "local", l.Name) {
			continue
		}
		if _, clash := c.globalIdx[l.Name]; clash {
			c.errs.errorf(l.Pos, "local %s shadows a global", l.Name)
			continue
		}
		if l.Name == sc.argName {
			c.errs.errorf(l.Pos, "local %s shadows the method argument", l.Name)
			continue
		}
		sc.localIdx[l.Name] = len(sc.locals)
		sc.locals = append(sc.locals, l)
	}
	for i, s := range m.Stmts {
		if first, dup := sc.labels[s.Label]; dup {
			c.errs.errorf(s.Pos, "duplicate statement label %s in method %s (first at statement %d)", s.Label, m.Name, first)
			continue
		}
		sc.labels[s.Label] = i
	}
	sc.computeFresh()
	return sc
}

// computeFresh marks ptr locals whose every assignment in the method is
// "= alloc(...)": a node such a local points to was allocated by the
// running invocation and is unreachable by other threads until published
// through a shared location, so field accesses through it do not count
// as shared-memory accesses.
func (sc *methodScope) computeFresh() {
	assigned := map[int]bool{} // local slot -> has a non-alloc assignment
	allocd := map[int]bool{}
	var walk func(seq []Instr)
	walk = func(seq []Instr) {
		for _, in := range seq {
			switch in := in.(type) {
			case *Assign:
				if in.LHS.Field == "" {
					if slot, ok := sc.localIdx[in.LHS.Base]; ok {
						if in.AllocKind != "" {
							allocd[slot] = true
						} else {
							assigned[slot] = true
						}
					}
				}
			case *If:
				walk(in.Then)
				walk(in.Else)
			}
		}
	}
	for _, s := range sc.method.Stmts {
		walk(s.Body)
	}
	for slot := range allocd {
		if !assigned[slot] && sc.locals[slot].Kind == "ptr" {
			sc.fresh[slot] = true
		}
	}
}

func (sc *methodScope) resolveMethod() rMethod {
	m := sc.method
	rm := rMethod{name: m.Name, argVals: m.ArgVals, argSet: m.ArgSet, pos: m.Pos}
	for _, s := range m.Stmts {
		body, _ := sc.resolveSeq(s.Body)
		if !sc.exempt {
			var acc accessCount
			sc.countAccesses(s, s.Body, &acc)
			sc.checkGranularity(s, acc)
		}
		if !sc.seqTerminates(body) {
			sc.c.errs.errorf(s.Pos, "statement %s can fall off the end: every execution path must finish with goto or return", s.Label)
		}
		rm.stmts = append(rm.stmts, rStmt{label: s.Label, body: body, pos: s.Pos})
	}
	return rm
}

// seqTerminates reports whether every path through seq ends in goto or
// return, and flags unreachable instructions after a terminator.
func (sc *methodScope) seqTerminates(seq []machine.Instr) bool {
	for i := range seq {
		in := &seq[i]
		var term bool
		switch in.Op {
		case machine.IRGoto, machine.IRReturn:
			term = true
		case machine.IRIfCmp, machine.IRIfCas:
			term = len(in.Else) > 0 && sc.seqTerminates(in.Then) && sc.seqTerminates(in.Else)
			if !term {
				// A non-terminating branch falls through; keep scanning.
				sc.seqTerminates(in.Then)
				sc.seqTerminates(in.Else)
			}
		}
		if term {
			if i != len(seq)-1 {
				sc.c.errs.errorf(seq[i+1].Pos, "unreachable instruction (the previous instruction always transfers control)")
			}
			return true
		}
	}
	return false
}

// resolveSeq resolves an instruction sequence; the bool reports whether
// resolution of every instruction succeeded.
func (sc *methodScope) resolveSeq(seq []Instr) ([]machine.Instr, bool) {
	out := make([]machine.Instr, 0, len(seq))
	ok := true
	for _, in := range seq {
		ri, good := sc.resolveInstr(in)
		out = append(out, ri)
		ok = ok && good
	}
	return out, ok
}

func (sc *methodScope) resolveInstr(in Instr) (machine.Instr, bool) {
	c := sc.c
	switch in := in.(type) {
	case *Goto:
		idx, ok := sc.labels[in.Label]
		if !ok {
			c.errs.errorf(in.P, "goto %s: no statement with that label in method %s", in.Label, sc.method.Name)
			return machine.Instr{Op: machine.IRGoto, Pos: in.P}, false
		}
		return machine.Instr{Op: machine.IRGoto, Target: idx, Pos: in.P}, true
	case *Return:
		val, kind, ok := sc.resolveExpr(in.Val)
		if ok && kind == "ptr" {
			c.errs.errorf(in.Val.P, "cannot return a pointer: return values are data values")
			ok = false
		}
		return machine.Instr{Op: machine.IRReturn, A: val, Pos: in.P}, ok
	case *Free:
		loc, kind, ok := sc.resolveVar(in.NamePos, in.Name)
		if ok && kind != "ptr" {
			c.errs.errorf(in.NamePos, "free(%s): %s is not a pointer", in.Name, in.Name)
			ok = false
		}
		return machine.Instr{Op: machine.IRFree, LHS: loc, Pos: in.P}, ok
	case *Lock:
		op, what := machine.IRLock, "lock"
		if in.Unlock {
			op, what = machine.IRUnlock, "unlock"
		}
		loc, kind, ok := sc.resolveVar(in.NamePos, in.Name)
		switch {
		case !ok:
		case loc.Kind == machine.LocLocal && kind == "ptr":
			// The lock word of the node the local references.
			loc = machine.Loc{Kind: machine.LocField, Index: loc.Index, Field: machine.FieldLock, Pos: in.NamePos, Name: in.Name}
		case loc.Kind == machine.LocGlobal && kind == "val":
		default:
			scope := "local"
			if loc.Kind == machine.LocGlobal {
				scope = "global"
			}
			c.errs.errorf(in.NamePos, "%s(%s): %s is a %s %s; a lock is a val global or the node a ptr local references", what, in.Name, in.Name, kind, scope)
			ok = false
		}
		return machine.Instr{Op: op, LHS: loc, Pos: in.P}, ok
	case *CasStmt:
		ri, ok := sc.resolveCas(in.Cas)
		ri.Op = machine.IRCas
		ri.Pos = in.P
		return ri, ok
	case *If:
		ri := machine.Instr{Pos: in.P}
		var ok bool
		if in.Cond.Cas != nil {
			ri, ok = sc.resolveCas(in.Cond.Cas)
			ri.Op = machine.IRIfCas
			ri.Pos = in.P
		} else {
			x, xk, okx := sc.resolveExpr(in.Cond.X)
			y, yk, oky := sc.resolveExpr(in.Cond.Y)
			ok = okx && oky
			less := in.Cond.Op == "<"
			switch {
			case ok && less && xk == "ptr":
				c.errs.errorf(in.Cond.X.P, `"<" orders val operands; %s is a pointer`, formatExpr(in.Cond.X))
				ok = false
			case ok && less && yk == "ptr":
				c.errs.errorf(in.Cond.Y.P, `"<" orders val operands; %s is a pointer`, formatExpr(in.Cond.Y))
				ok = false
			case ok && xk != yk:
				c.errs.errorf(in.Cond.P, "comparison mixes %s and %s operands", xk, yk)
				ok = false
			}
			ri.Op = machine.IRIfCmp
			ri.A, ri.B = x, y
			ri.Negate = in.Cond.Op == "!="
			ri.Less = less
		}
		then, okt := sc.resolveSeq(in.Then)
		els, oke := sc.resolveSeq(in.Else)
		ri.Then, ri.Else = then, els
		return ri, ok && okt && oke
	case *Assign:
		lhs, lk, ok := sc.resolveLValue(&in.LHS)
		if in.AllocKind != "" {
			kind, found := c.nodeIdx[in.AllocKind]
			if !found {
				c.errs.errorf(in.AllocPos, "alloc(%s): no node kind named %s", in.AllocKind, in.AllocKind)
				ok = false
			}
			if ok && (lhs.Kind == machine.LocField || lk != "ptr") {
				c.errs.errorf(in.LHS.P, "alloc result must be stored in a ptr variable")
				ok = false
			}
			return machine.Instr{Op: machine.IRAlloc, LHS: lhs, AllocKind: kind, Pos: in.P}, ok
		}
		rhs, rk, okr := sc.resolveExpr(in.RHS)
		ok = ok && okr
		if ok && lk != rk {
			c.errs.errorf(in.P, "cannot assign %s expression to %s location %s", rk, lk, lvName(&in.LHS))
			ok = false
		}
		return machine.Instr{Op: machine.IRAssign, LHS: lhs, A: rhs, Pos: in.P}, ok
	}
	panic("bbvl: unknown instruction type")
}

func lvName(lv *LValue) string {
	if lv.Field != "" {
		return lv.Base + "." + lv.Field
	}
	return lv.Base
}

// resolveCas resolves the shared cas(target, exp, new) form used by both
// the statement and the condition position.
func (sc *methodScope) resolveCas(cs *Cas) (machine.Instr, bool) {
	c := sc.c
	loc, lk, ok := sc.resolveLValue(&cs.Target)
	exp, ek, oke := sc.resolveExpr(cs.Exp)
	nv, nk, okn := sc.resolveExpr(cs.NewVal)
	ok = ok && oke && okn
	if ok && (ek != lk || nk != lk) {
		c.errs.errorf(cs.P, "cas operands must match the %s kind of %s", lk, lvName(&cs.Target))
		ok = false
	}
	if ok && loc.Kind == machine.LocLocal {
		c.errs.errorf(cs.P, "cas target %s is a local; cas needs a shared location", lvName(&cs.Target))
		ok = false
	}
	return machine.Instr{LHS: loc, A: exp, B: nv, Pos: cs.P}, ok
}

// resolveVar resolves a bare variable name to a location and its kind.
func (sc *methodScope) resolveVar(pos Pos, name string) (machine.Loc, string, bool) {
	if slot, ok := sc.localIdx[name]; ok {
		return machine.Loc{Kind: machine.LocLocal, Index: slot, Pos: pos, Name: name}, sc.locals[slot].Kind, true
	}
	if gi, ok := sc.c.globalIdx[name]; ok {
		return machine.Loc{Kind: machine.LocGlobal, Index: gi, Pos: pos, Name: name}, sc.c.globalKind[gi], true
	}
	sc.c.errs.errorf(pos, "undefined variable %s", name)
	return machine.Loc{Pos: pos, Name: name}, "val", false
}

// resolveLValue resolves a variable or field location; the string is the
// location's kind ("val", "ptr"; mark fields resolve as "val").
func (sc *methodScope) resolveLValue(lv *LValue) (machine.Loc, string, bool) {
	base, bk, ok := sc.resolveVar(lv.P, lv.Base)
	if lv.Field == "" {
		return base, bk, ok
	}
	if ok && bk != "ptr" {
		sc.c.errs.errorf(lv.P, "%s is not a pointer: cannot access field %s", lv.Base, lv.Field)
		ok = false
	}
	fi, found := sc.c.fields[lv.Field]
	if !found {
		sc.c.errs.errorf(lv.FieldPos, "no node kind declares a field named %s", lv.Field)
		return machine.Loc{Kind: machine.LocField, Pos: lv.P, Name: lvName(lv)}, "val", false
	}
	loc := machine.Loc{
		Kind:       machine.LocField,
		Index:      base.Index,
		BaseGlobal: base.Kind == machine.LocGlobal,
		Field:      fi.acc,
		Pos:        lv.P,
		Name:       lvName(lv),
	}
	kind := fi.class
	if kind == "mark" {
		kind = "val"
	}
	return loc, kind, ok
}

// constValues maps the built-in constants to their machine values.
var constValues = map[string]int32{
	"ok":    machine.ValOK,
	"empty": machine.ValEmpty,
	"null":  machine.ValNull,
	"true":  machine.ValTrue,
	"false": machine.ValFalse,
}

// resolveExpr resolves an operand expression to (operand, kind, ok).
func (sc *methodScope) resolveExpr(e *Expr) (machine.Operand, string, bool) {
	if e == nil {
		return machine.Operand{}, "val", false
	}
	if e.IsInt {
		return machine.Operand{Kind: machine.OperandLit, Lit: e.Int}, "val", true
	}
	if e.Field != "" {
		loc, kind, ok := sc.resolveLValue(&LValue{P: e.P, Base: e.Name, Field: e.Field, FieldPos: e.FieldPos})
		return machine.Operand{Kind: machine.OperandLoc, Loc: loc}, kind, ok
	}
	switch e.Name {
	case "nil":
		return machine.Operand{Kind: machine.OperandLit, Lit: 0}, "ptr", true
	case "self":
		return machine.Operand{Kind: machine.OperandSelf}, "val", true
	}
	if v, ok := constValues[e.Name]; ok {
		return machine.Operand{Kind: machine.OperandLit, Lit: v}, "val", true
	}
	if e.Name == sc.argName && sc.argName != "" {
		return machine.Operand{Kind: machine.OperandArg}, "val", true
	}
	loc, kind, ok := sc.resolveVar(e.P, e.Name)
	return machine.Operand{Kind: machine.OperandLoc, Loc: loc}, kind, ok
}

// accessKind classifies one destructive shared access for the
// granularity rule.
type accessKind uint8

const (
	accWrite accessKind = iota
	accAlloc
	accUnlock
)

// access is one destructive shared access of a statement. local is the
// ptr local an alloc fills, or the variable an assignment stores (empty
// for any other value).
type access struct {
	key   string
	pos   Pos
	kind  accessKind
	local string
}

// accessCount collects the distinct shared locations an atomic statement
// writes (or CASes, allocates, frees, locks or unlocks), in source
// order.
type accessCount []access

func (a *accessCount) add(x access) {
	for _, y := range *a {
		if y.key == x.key {
			return
		}
	}
	*a = append(*a, x)
}

// countAccesses collects the destructive shared accesses of an
// implementation statement for checkGranularity: global writes and
// CASes, field writes and CASes, allocs, frees, locks and unlocks. Reads
// ride along (the paper's models snapshot several variables in one step,
// e.g. MS queue's L19), as do writes through fresh unpublished nodes and
// reads of immutable val fields. It also rejects a CAS on a plain val
// variable whose result is discarded: without branching on the outcome
// such a CAS cannot be distinguished from a blind write, which is
// invariably a modeling mistake.
func (sc *methodScope) countAccesses(stmt *Stmt, seq []Instr, acc *accessCount) {
	for _, in := range seq {
		switch in := in.(type) {
		case *Assign:
			if in.AllocKind != "" {
				x := access{key: "alloc@" + in.P.String(), pos: in.P, kind: accAlloc}
				if _, isLocal := sc.localIdx[in.LHS.Base]; isLocal && in.LHS.Field == "" {
					x.local = in.LHS.Base
				}
				acc.add(x)
				continue
			}
			if key, shared := sc.sharedWriteKey(&in.LHS); shared {
				x := access{key: key, pos: in.P}
				if in.RHS != nil && !in.RHS.IsInt && in.RHS.Field == "" {
					x.local = in.RHS.Name
				}
				acc.add(x)
			}
		case *Free:
			acc.add(access{key: "free@" + in.P.String(), pos: in.P})
		case *Lock:
			if key, shared := sc.lockKey(in); shared {
				x := access{key: key, pos: in.P}
				if in.Unlock {
					x.kind = accUnlock
				}
				acc.add(x)
			}
		case *CasStmt:
			sc.checkUnguardedCas(in.Cas)
			if key, shared := sc.sharedWriteKey(&in.Cas.Target); shared {
				acc.add(access{key: key, pos: in.Cas.P})
			}
		case *If:
			if in.Cond.Cas != nil {
				if key, shared := sc.sharedWriteKey(&in.Cond.Cas.Target); shared {
					acc.add(access{key: key, pos: in.Cond.Cas.P})
				}
			}
			sc.countAccesses(stmt, in.Then, acc)
			sc.countAccesses(stmt, in.Else, acc)
		}
	}
}

// checkGranularity enforces the paper's modeling discipline on an
// implementation statement: at most one destructive shared access per
// atomic statement. One rule (DESIGN.md, "One definition per
// algorithm") admits the two shapes of the lock-based lists' critical
// sections:
//
//   - alloc-and-link: allocate a node into a local, then publish it with
//     one plain store of that local (the new node's own fields are
//     private until then), and
//   - release two locks at once: a statement whose only accesses are
//     two unlocks (validation failure, or the end of a critical
//     section).
func (sc *methodScope) checkGranularity(stmt *Stmt, l accessCount) {
	if len(l) <= 1 {
		return
	}
	if len(l) == 2 && l[0].kind == accAlloc && l[0].local != "" && l[1].kind == accWrite && l[1].local == l[0].local {
		return // alloc-and-link
	}
	if len(l) == 2 && l[0].kind == accUnlock && l[1].kind == accUnlock {
		return // two releases
	}
	for i := 1; i < len(l); i++ {
		sc.c.errs.errorf(l[i].pos, "statement %s performs %d shared-memory writes (first at %s): the model discipline is one shared access per atomic statement",
			stmt.Label, i+1, l[0].pos)
	}
}

// checkUnguardedCas rejects statement-position CAS on plain val
// locations (the "unguarded CAS on a plain variable" diagnostic).
func (sc *methodScope) checkUnguardedCas(cs *Cas) {
	lv := &cs.Target
	kind := ""
	if lv.Field == "" {
		if gi, ok := sc.c.globalIdx[lv.Base]; ok {
			kind = sc.c.globalKind[gi]
		} else if slot, ok := sc.localIdx[lv.Base]; ok {
			kind = sc.locals[slot].Kind
		}
	} else if fi, ok := sc.c.fields[lv.Field]; ok {
		kind = fi.class
	}
	if kind == "val" {
		sc.c.errs.errorf(cs.P, "unguarded cas on plain (val) variable %s discards its result; branch on it with if cas(...)", lvName(lv))
	}
}

// sharedWriteKey returns a location identity for a destructive access,
// and whether it touches shared memory at all (writes through fresh
// unpublished nodes do not).
func (sc *methodScope) sharedWriteKey(lv *LValue) (string, bool) {
	if lv.Field == "" {
		if _, isLocal := sc.localIdx[lv.Base]; isLocal {
			return "", false // local register write
		}
		return "g:" + lv.Base, true
	}
	if slot, isLocal := sc.localIdx[lv.Base]; isLocal && sc.fresh[slot] {
		return "", false // field of a fresh, unpublished node
	}
	return "f:" + lv.Base + "." + lv.Field, true
}

// lockKey returns the location identity of a lock or unlock, and
// whether it touches shared memory at all (the lock of a fresh,
// unpublished node does not).
func (sc *methodScope) lockKey(in *Lock) (string, bool) {
	if slot, isLocal := sc.localIdx[in.Name]; isLocal {
		return "lock:" + in.Name, !sc.fresh[slot]
	}
	return "g:" + in.Name, true
}

// checkInit validates the init block: straight-line global and field
// initialization only, through the block's own locals if it declares
// any. It returns the compiled block and its local count.
func (c *checker) checkInit(locals []*VarDecl, seq []Instr) ([]machine.Instr, int) {
	if len(seq) == 0 && len(locals) == 0 {
		return nil, 0
	}
	// Init shares the resolution machinery via a scope with its own
	// locals, no argument and no labels.
	sc := c.newMethodScope(&MethodDecl{Name: "init", Locals: locals}, true)
	var out []machine.Instr
	for _, in := range seq {
		as, ok := in.(*Assign)
		if !ok {
			c.errs.errorf(in.pos(), "init blocks allow only assignments and allocations")
			continue
		}
		ri, good := sc.resolveInstr(as)
		if good {
			out = append(out, ri)
		}
	}
	return out, len(sc.locals)
}

// checkSpecShape verifies the model exposes exactly the method
// signatures its specification exposes, so their visible call/return
// alphabets can coincide.
func (c *checker) checkSpecShape(s *SpecDecl, methods []*MethodDecl) {
	shape := append([]struct {
		name   string
		hasArg bool
	}{}, specShapes[s.Kind]...)
	if s.Kind == "set" && s.Contains {
		shape = append(shape, struct {
			name   string
			hasArg bool
		}{"Contains", true})
	}
	byName := map[string]*MethodDecl{}
	for _, m := range methods {
		byName[m.Name] = m
	}
	for _, want := range shape {
		m, ok := byName[want.name]
		if !ok {
			c.errs.errorf(s.Pos, "spec %s requires a method named %s", specName(s), want.name)
			continue
		}
		if want.hasArg && m.ArgName == "" {
			c.errs.errorf(m.Pos, "method %s must take an argument to match spec %s", m.Name, specName(s))
		}
		if !want.hasArg && m.ArgName != "" {
			c.errs.errorf(m.ArgPos, "method %s must not take an argument to match spec %s", m.Name, specName(s))
		}
		delete(byName, want.name)
	}
	for _, m := range byName {
		c.errs.errorf(m.Pos, "method %s is not part of spec %s (the specification cannot match its call/return actions)", m.Name, specName(s))
	}
}

func specName(s *SpecDecl) string {
	if s.Kind == "set" && s.Contains {
		return "set contains"
	}
	return s.Kind
}
