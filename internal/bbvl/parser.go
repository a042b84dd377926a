package bbvl

import (
	"fmt"
	"strconv"
)

// parser is a recursive-descent parser with one token of lookahead. It
// aborts on the first syntax error (carried by panic with a *Error and
// recovered in Parse).
type parser struct {
	lx    *lexer
	tok   token // current token
	ahead token // next token
}

// parseBail wraps the diagnostic for the panic-based bailout so that
// unrelated runtime panics are not swallowed by Parse's recover.
type parseBail struct{ err *Error }

// Parse lexes and parses one model file. filename is used for diagnostic
// positions only. On failure it returns an ErrorList (of one syntax
// error — the parser does not attempt recovery).
func Parse(filename string, src []byte) (f *File, err error) {
	defer func() {
		if r := recover(); r != nil {
			b, ok := r.(parseBail)
			if !ok {
				panic(r)
			}
			f, err = nil, ErrorList{b.err}
		}
	}()
	p := &parser{lx: newLexer(filename, src)}
	p.advance()
	p.advance()
	return p.parseFile(), nil
}

func (p *parser) fail(pos Pos, format string, args ...any) {
	panic(parseBail{&Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}})
}

// advance shifts the lookahead window by one token.
func (p *parser) advance() {
	p.tok = p.ahead
	next, lerr := p.lx.next()
	if lerr != nil {
		panic(parseBail{lerr})
	}
	p.ahead = next
}

func (p *parser) expect(k tokKind) token {
	if p.tok.kind != k {
		p.fail(p.tok.pos, "expected %s, found %s", k, p.tok.describe())
	}
	t := p.tok
	p.advance()
	return t
}

// keyword consumes the current token, which must be the given keyword
// identifier.
func (p *parser) keyword(kw string) token {
	if !p.at(kw) {
		p.fail(p.tok.pos, "expected %q, found %s", kw, p.tok.describe())
	}
	t := p.tok
	p.advance()
	return t
}

// at reports whether the current token is the given keyword identifier.
func (p *parser) at(kw string) bool {
	return p.tok.kind == tokIdent && p.tok.text == kw
}

func (p *parser) ident() (string, Pos) {
	t := p.expect(tokIdent)
	return t.text, t.pos
}

func (p *parser) intLit() (int, Pos) {
	t := p.expect(tokInt)
	n, err := strconv.Atoi(t.text)
	if err != nil {
		p.fail(t.pos, "integer %q out of range", t.text)
	}
	return n, t.pos
}

// natLit parses a non-negative integer: heap sizes and argument domains
// have no use for negative values (only operands do).
func (p *parser) natLit() int {
	n, pos := p.intLit()
	if n < 0 {
		p.fail(pos, "expected a non-negative integer, found %d", n)
	}
	return n
}

func (p *parser) parseFile() *File {
	f := &File{}
	t := p.keyword("model")
	f.Pos = t.pos
	f.Name, _ = p.ident()
	for p.tok.kind != tokEOF {
		if p.tok.kind != tokIdent {
			p.fail(p.tok.pos, "expected a declaration, found %s", p.tok.describe())
		}
		switch p.tok.text {
		case "node":
			f.Nodes = append(f.Nodes, p.parseNode())
		case "globals":
			if f.Globals != nil {
				p.fail(p.tok.pos, "duplicate globals block")
			}
			f.Globals = p.parseGlobals()
		case "heap":
			if f.Heap != nil {
				p.fail(p.tok.pos, "duplicate heap declaration")
			}
			f.Heap = p.parseHeap()
		case "spec":
			if f.Spec != nil {
				p.fail(p.tok.pos, "duplicate spec declaration")
			}
			f.Spec = p.parseSpec()
		case "lockbased":
			if f.LockBased {
				p.fail(p.tok.pos, "duplicate lockbased declaration")
			}
			f.LockBased = true
			p.advance()
		case "init":
			if f.Init != nil {
				p.fail(p.tok.pos, "duplicate init block")
			}
			f.InitPos = p.tok.pos
			p.advance()
			p.expect(tokLBrace)
			f.InitLocals = p.parseLocals()
			f.Init = p.parseInstrSeq()
			p.expect(tokRBrace)
			if f.Init == nil {
				f.Init = []Instr{}
			}
		case "method":
			f.Methods = append(f.Methods, p.parseMethod())
		case "abstract":
			if f.Abstract != nil {
				p.fail(p.tok.pos, "duplicate abstract block")
			}
			f.Abstract = p.parseAbstract()
		default:
			p.fail(p.tok.pos, "unexpected %q at top level (expected node, globals, heap, spec, lockbased, init, method or abstract)", p.tok.text)
		}
	}
	return f
}

func (p *parser) parseNode() *NodeDecl {
	t := p.keyword("node")
	n := &NodeDecl{Pos: t.pos}
	n.Name, _ = p.ident()
	p.expect(tokLBrace)
	for p.tok.kind != tokRBrace {
		name, pos := p.ident()
		p.expect(tokColon)
		class, cpos := p.ident()
		switch class {
		case "val", "ptr", "mark":
		default:
			p.fail(cpos, "unknown field class %q (want val, ptr or mark)", class)
		}
		n.Fields = append(n.Fields, &FieldDecl{Pos: pos, Name: name, Class: class})
	}
	p.expect(tokRBrace)
	return n
}

func (p *parser) parseGlobals() []*VarDecl {
	p.keyword("globals")
	p.expect(tokLBrace)
	var out []*VarDecl
	for p.tok.kind != tokRBrace {
		name, pos := p.ident()
		p.expect(tokColon)
		kind, kpos := p.ident()
		switch kind {
		case "val", "ptr":
		default:
			p.fail(kpos, "unknown variable kind %q (want val or ptr)", kind)
		}
		out = append(out, &VarDecl{Pos: pos, Name: name, Kind: kind})
	}
	p.expect(tokRBrace)
	if out == nil {
		out = []*VarDecl{}
	}
	return out
}

func (p *parser) parseHeap() *HeapDecl {
	t := p.keyword("heap")
	h := &HeapDecl{Pos: t.pos}
	if p.at("totalops") {
		p.advance()
		h.TotalOps = true
		if p.tok.kind == tokPlus {
			p.advance()
			h.Extra = p.natLit()
		}
		return h
	}
	h.Extra = p.natLit()
	return h
}

func (p *parser) parseSpec() *SpecDecl {
	t := p.keyword("spec")
	s := &SpecDecl{Pos: t.pos}
	kind, kpos := p.ident()
	switch kind {
	case "stack", "queue", "set":
	default:
		p.fail(kpos, "unknown spec %q (want stack, queue or set)", kind)
	}
	s.Kind = kind
	if kind == "set" && p.at("contains") {
		s.Contains = true
		p.advance()
	}
	return s
}

func (p *parser) parseAbstract() *AbstractDecl {
	t := p.keyword("abstract")
	a := &AbstractDecl{Pos: t.pos}
	p.expect(tokLBrace)
	for !p.atKind(tokRBrace) {
		if !p.at("method") {
			p.fail(p.tok.pos, "expected a method declaration in abstract block, found %s", p.tok.describe())
		}
		a.Methods = append(a.Methods, p.parseMethod())
	}
	p.expect(tokRBrace)
	return a
}

func (p *parser) atKind(k tokKind) bool { return p.tok.kind == k }

func (p *parser) parseMethod() *MethodDecl {
	t := p.keyword("method")
	m := &MethodDecl{Pos: t.pos}
	m.Name, _ = p.ident()
	p.expect(tokLParen)
	if p.tok.kind != tokRParen {
		m.ArgName, m.ArgPos = p.ident()
		p.expect(tokColon)
		if p.at("vals") {
			m.ArgVals = true
			p.advance()
		} else if p.tok.kind == tokLBrace {
			p.advance()
			for {
				m.ArgSet = append(m.ArgSet, int32(p.natLit()))
				if p.tok.kind != tokComma {
					break
				}
				p.advance()
			}
			p.expect(tokRBrace)
		} else {
			p.fail(p.tok.pos, "expected argument domain (vals or {v1, v2, ...}), found %s", p.tok.describe())
		}
	}
	p.expect(tokRParen)
	p.expect(tokLBrace)
	m.Locals = p.parseLocals()
	for p.tok.kind != tokRBrace {
		m.Stmts = append(m.Stmts, p.parseStmt())
	}
	p.expect(tokRBrace)
	return m
}

// parseLocals parses the "var name, ...: kind" declarations that open a
// method body or an init block.
func (p *parser) parseLocals() []*VarDecl {
	var out []*VarDecl
	for p.at("var") {
		p.advance()
		var names []string
		var poss []Pos
		for {
			n, pos := p.ident()
			names = append(names, n)
			poss = append(poss, pos)
			if p.tok.kind != tokComma {
				break
			}
			p.advance()
		}
		p.expect(tokColon)
		kind, kpos := p.ident()
		switch kind {
		case "val", "ptr":
		default:
			p.fail(kpos, "unknown variable kind %q (want val or ptr)", kind)
		}
		for i, n := range names {
			out = append(out, &VarDecl{Pos: poss[i], Name: n, Kind: kind})
		}
	}
	return out
}

// atLabel reports whether the current position starts a new labeled
// statement ("IDENT :").
func (p *parser) atLabel() bool {
	return p.tok.kind == tokIdent && p.ahead.kind == tokColon
}

func (p *parser) parseStmt() *Stmt {
	if !p.atLabel() {
		p.fail(p.tok.pos, "expected a labeled atomic statement (\"LABEL: instruction; ...\"), found %s", p.tok.describe())
	}
	s := &Stmt{Pos: p.tok.pos, Label: p.tok.text}
	p.advance() // label
	p.advance() // colon
	for p.tok.kind != tokRBrace && p.tok.kind != tokEOF && !p.atLabel() {
		s.Body = append(s.Body, p.parseInstr())
		for p.tok.kind == tokSemi {
			p.advance()
		}
	}
	if len(s.Body) == 0 {
		p.fail(s.Pos, "statement %s has no instructions", s.Label)
	}
	return s
}

// parseInstrSeq parses instructions until "}" (used for init and if
// branches).
func (p *parser) parseInstrSeq() []Instr {
	var out []Instr
	for p.tok.kind != tokRBrace && p.tok.kind != tokEOF {
		out = append(out, p.parseInstr())
		for p.tok.kind == tokSemi {
			p.advance()
		}
	}
	return out
}

func (p *parser) parseInstr() Instr {
	pos := p.tok.pos
	switch {
	case p.at("goto"):
		p.advance()
		label, _ := p.ident()
		return &Goto{P: pos, Label: label}
	case p.at("return"):
		p.advance()
		return &Return{P: pos, Val: p.parseExpr()}
	case p.at("free"), p.at("lock"), p.at("unlock"):
		op := p.tok.text
		p.advance()
		p.expect(tokLParen)
		name, npos := p.ident()
		p.expect(tokRParen)
		if op == "free" {
			return &Free{P: pos, Name: name, NamePos: npos}
		}
		return &Lock{P: pos, Name: name, NamePos: npos, Unlock: op == "unlock"}
	case p.at("cas"):
		return &CasStmt{P: pos, Cas: p.parseCas()}
	case p.at("if"):
		return p.parseIf()
	}
	if p.tok.kind != tokIdent {
		p.fail(pos, "expected an instruction, found %s", p.tok.describe())
	}
	lhs := p.parseLValue()
	p.expect(tokAssign)
	if p.at("alloc") {
		apos := p.tok.pos
		p.advance()
		p.expect(tokLParen)
		kind, _ := p.ident()
		p.expect(tokRParen)
		return &Assign{P: pos, LHS: lhs, AllocKind: kind, AllocPos: apos}
	}
	return &Assign{P: pos, LHS: lhs, RHS: p.parseExpr()}
}

func (p *parser) parseIf() Instr {
	t := p.keyword("if")
	in := &If{P: t.pos}
	in.Cond = p.parseCond()
	p.expect(tokLBrace)
	in.Then = p.parseInstrSeq()
	p.expect(tokRBrace)
	if p.at("else") {
		p.advance()
		in.HasElse = true
		p.expect(tokLBrace)
		in.Else = p.parseInstrSeq()
		p.expect(tokRBrace)
	}
	return in
}

func (p *parser) parseCond() *CondExpr {
	pos := p.tok.pos
	if p.at("cas") {
		return &CondExpr{P: pos, Cas: p.parseCas()}
	}
	x := p.parseExpr()
	var op string
	switch p.tok.kind {
	case tokEq:
		op = "=="
	case tokNeq:
		op = "!="
	case tokLt:
		op = "<"
	default:
		p.fail(p.tok.pos, "expected \"==\", \"!=\" or \"<\" in condition, found %s", p.tok.describe())
	}
	p.advance()
	return &CondExpr{P: pos, X: x, Op: op, Y: p.parseExpr()}
}

func (p *parser) parseCas() *Cas {
	t := p.keyword("cas")
	c := &Cas{P: t.pos}
	p.expect(tokLParen)
	c.Target = p.parseLValue()
	p.expect(tokComma)
	c.Exp = p.parseExpr()
	p.expect(tokComma)
	c.NewVal = p.parseExpr()
	p.expect(tokRParen)
	return c
}

func (p *parser) parseLValue() LValue {
	name, pos := p.ident()
	lv := LValue{P: pos, Base: name}
	if p.tok.kind == tokDot {
		p.advance()
		lv.Field, lv.FieldPos = p.ident()
	}
	return lv
}

func (p *parser) parseExpr() *Expr {
	pos := p.tok.pos
	if p.tok.kind == tokInt {
		n, _ := p.intLit()
		if n > 1<<30 || n < -(1<<30) {
			p.fail(pos, "integer literal %d too large", n)
		}
		return &Expr{P: pos, IsInt: true, Int: int32(n)}
	}
	name, _ := p.ident()
	e := &Expr{P: pos, Name: name}
	if p.tok.kind == tokDot {
		p.advance()
		e.Field, e.FieldPos = p.ident()
	}
	return e
}
