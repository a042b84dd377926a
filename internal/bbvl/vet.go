package bbvl

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/vet"
)

// Vet runs the full static-analysis pass over a checked model: the
// AST-level structural checks below, plus every internal/vet analyzer
// over the compiled implementation program (with the abstract program as
// a companion, so globals only the abstraction reads still count as
// used) and over the abstract program itself. Zero fields of cfg default
// to the vet pilot size (2 threads, 2 ops).
func (m *Model) Vet(cfg Config) []vet.Finding {
	if cfg.Threads <= 0 {
		cfg.Threads = 2
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 2
	}
	findings := m.vetAST()

	impl := m.Build(cfg)
	opts := vet.Options{
		Threads:   cfg.Threads,
		Ops:       cfg.Ops,
		LockBased: m.LockBased,
	}
	var abs *machine.Program
	if m.HasAbstract {
		abs = m.AbstractProgram(cfg)
		opts.Companions = []*machine.Program{abs}
	}
	findings = append(findings, vet.Check(impl, opts)...)
	if abs != nil {
		// Abstract methods are single atomic blocks: they cannot spin, and
		// they legitimately touch only a subset of the shared schema.
		findings = append(findings, vet.Check(abs, vet.Options{
			Threads:           cfg.Threads,
			Ops:               cfg.Ops,
			NoTauCycle:        true,
			SkipUnusedGlobals: true,
		})...)
	}
	vet.Sort(findings)
	return findings
}

// vetAST runs the structural checks that need the source AST rather
// than a compiled program: abstract-block shape and unallocated node
// kinds.
func (m *Model) vetAST() []vet.Finding {
	var findings []vet.Finding

	// An abstract program must mirror the implementation's method set —
	// Theorem 5.8 compares the two method by method, so a missing or
	// extra abstract method makes the correspondence vacuous.
	if m.file.Abstract != nil {
		absNames := map[string]bool{}
		for _, am := range m.file.Abstract.Methods {
			absNames[am.Name] = true
		}
		implNames := map[string]bool{}
		for _, im := range m.file.Methods {
			implNames[im.Name] = true
			if !absNames[im.Name] {
				findings = append(findings, vet.Finding{
					Analyzer: "specshape",
					Severity: vet.Warning,
					Program:  m.Name,
					Method:   im.Name,
					Pos:      m.file.Abstract.Pos,
					Msg:      fmt.Sprintf("abstract block declares no method %s: the abstract program must mirror every implementation method for the Theorem 5.8 correspondence to apply", im.Name),
				})
			}
		}
		for _, am := range m.file.Abstract.Methods {
			if !implNames[am.Name] {
				findings = append(findings, vet.Finding{
					Analyzer: "specshape",
					Severity: vet.Warning,
					Program:  m.Name,
					Method:   am.Name,
					Pos:      am.Pos,
					Msg:      fmt.Sprintf("abstract method %s has no implementation counterpart", am.Name),
				})
			}
		}
	}

	// A node kind no program ever allocates is dead weight in the model
	// (and its fields silently shadow field-name resolution).
	allocated := map[int32]bool{}
	collect := func(p *rProgram) {
		if p == nil {
			return
		}
		scanAllocKinds(p.init, allocated)
		for i := range p.methods {
			for j := range p.methods[i].stmts {
				scanAllocKinds(p.methods[i].stmts[j].body, allocated)
			}
		}
	}
	collect(m.prog)
	collect(m.abs)
	for ni, n := range m.file.Nodes {
		if !allocated[int32(ni)+1] {
			findings = append(findings, vet.Finding{
				Analyzer: "unusedvar",
				Severity: vet.Warning,
				Program:  m.Name,
				Pos:      n.Pos,
				Msg:      fmt.Sprintf("node kind %s is never allocated", n.Name),
			})
		}
	}
	return findings
}

func scanAllocKinds(seq []machine.Instr, out map[int32]bool) {
	for i := range seq {
		in := &seq[i]
		if in.Op == machine.IRAlloc {
			out[in.AllocKind] = true
		}
		scanAllocKinds(in.Then, out)
		scanAllocKinds(in.Else, out)
	}
}
