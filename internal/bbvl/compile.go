package bbvl

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/spec"
)

// Build instantiates the model's implementation program for one instance
// size. The compiled program is byte-for-byte equivalent to a hand-coded
// machine.Program with the same statement structure: globals, heap
// capacity, local slots, method order, statement labels and outcome
// emission all follow the source, so a model that re-encodes a
// hand-coded program explores an identical LTS.
func (m *Model) Build(cfg Config) *machine.Program {
	return m.withRets(m.prog.instantiate(cfg))
}

// SpecProgram instantiates the single-atomic-block specification the
// model declared (spec stack | queue | set). The builtin specifications
// are shared with the algorithm registry, so a model is verified against
// exactly the specification its hand-coded counterpart uses.
func (m *Model) SpecProgram(cfg Config) *machine.Program {
	vals := cfg.Values()
	switch m.SpecKind {
	case "stack":
		return spec.Stack(vals, cfg.TotalOps())
	case "queue":
		return spec.Queue(vals, cfg.TotalOps())
	default:
		return spec.Set(vals, spec.SetMethods{Contains: m.SpecContains})
	}
}

// AbstractProgram instantiates the model's abstract (Theorem 5.8)
// program; it panics when the model has none — check HasAbstract first.
func (m *Model) AbstractProgram(cfg Config) *machine.Program {
	if m.abs == nil {
		panic(fmt.Sprintf("bbvl: model %s has no abstract program", m.Name))
	}
	return m.withRets(m.abs.instantiate(cfg))
}

// withRets makes a set model render its returns as the set
// specification does (true/false), so their return actions coincide.
func (m *Model) withRets(p *machine.Program) *machine.Program {
	if m.SpecKind == "set" {
		p.FormatRet = func(_ *machine.Method, ret int32) string { return machine.FormatBool(ret) }
	}
	return p
}

// instantiate builds the machine.Program for one instance size. Besides
// the executable statements it attaches the static metadata the vet
// analyzers read: source positions on every schema entry, method and
// statement, and each statement's micro-instruction sequence (Stmt.IR —
// the same []machine.Instr the Exec closure interprets).
func (p *rProgram) instantiate(cfg Config) *machine.Program {
	heapCap := p.heapExtra
	if p.heapTotalOps {
		heapCap += cfg.TotalOps()
	}
	prog := &machine.Program{
		Name:       p.name,
		Globals:    machine.Schema{Names: p.globalNames, Kinds: p.globalKinds, Pos: p.globalPos},
		HeapCap:    heapCap,
		NLocals:    p.nlocals,
		LocalKinds: p.localKinds,
		Source:     p.source,
	}
	if len(p.init) > 0 {
		seq, nlocals := p.init, p.initLocals
		prog.InitIR = seq
		prog.Init = func(g *machine.Global) {
			// Init runs single-threaded before exploration; a zero Ctx
			// over the fresh Global reuses the statement interpreter.
			c := &machine.Ctx{G: g, L: make([]int32, nlocals)}
			machine.RunIR(c, seq)
		}
	}
	for i := range p.methods {
		rm := &p.methods[i]
		var args []int32
		switch {
		case rm.argVals:
			args = cfg.Values()
		case len(rm.argSet) > 0:
			args = rm.argSet
		}
		meth := machine.Method{Name: rm.name, Args: args, Pos: rm.pos}
		for j := range rm.stmts {
			body := rm.stmts[j].body
			meth.Body = append(meth.Body, machine.Stmt{
				Label: rm.stmts[j].label,
				Exec:  func(c *machine.Ctx) { machine.RunIR(c, body) },
				Pos:   rm.stmts[j].pos,
				IR:    body,
			})
		}
		prog.Methods = append(prog.Methods, meth)
	}
	return prog
}
