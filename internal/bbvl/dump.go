package bbvl

import (
	"fmt"
	"strings"

	"repro/internal/machine"
)

// Dump renders the compiled form of the model: the shared-state schema,
// the node-field layout onto machine.Node, the local register slots, and
// every method body in resolved form. It is the output of "bbverify
// compile" and exists so a model author can see exactly which
// machine-level program their source produces.
func (m *Model) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model %s (spec %s)\n", m.Name, specDisplay(m))
	if m.LockBased {
		b.WriteString("lockbased: liveness is checked as deadlock-freedom\n")
	}

	b.WriteString("globals:\n")
	for i, name := range m.prog.globalNames {
		fmt.Fprintf(&b, "  [%d] %s %s\n", i, name, kindName(m.prog.globalKinds[i]))
	}

	for ni, n := range m.file.Nodes {
		fmt.Fprintf(&b, "node %s -> heap kind %d:\n", n.Name, ni+1)
		counts := map[string]int{}
		for _, fd := range n.Fields {
			i := counts[fd.Class]
			counts[fd.Class]++
			var acc machine.FieldSel
			switch fd.Class {
			case "val":
				acc = valFieldSlots[i]
			case "ptr":
				acc = ptrFieldSlots[i]
			default:
				acc = machine.FieldMark
			}
			fmt.Fprintf(&b, "  %s (%s) -> machine.Node.%s\n", fd.Name, fd.Class, acc)
		}
	}

	if m.prog.heapTotalOps {
		fmt.Fprintf(&b, "heap: threads*ops + %d cells\n", m.prog.heapExtra)
	} else {
		fmt.Fprintf(&b, "heap: %d cells\n", m.prog.heapExtra)
	}

	fmt.Fprintf(&b, "locals: %d slots", m.prog.nlocals)
	for i, k := range m.prog.localKinds {
		if i == 0 {
			b.WriteString(" [")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "l%d %s", i, kindName(k))
	}
	if m.prog.nlocals > 0 {
		b.WriteString("]")
	}
	b.WriteString("\n")

	m.dumpMethods(&b, m.prog, "method")
	if m.abs != nil {
		b.WriteString("abstract:\n")
		m.dumpMethods(&b, m.abs, "  method")
	}
	return b.String()
}

func specDisplay(m *Model) string {
	if m.SpecKind == "set" && m.SpecContains {
		return "set contains"
	}
	return m.SpecKind
}

func kindName(k machine.VarKind) string {
	if k == machine.KPtr {
		return "ptr"
	}
	return "val"
}

func (m *Model) dumpMethods(b *strings.Builder, p *rProgram, keyword string) {
	indent := strings.Repeat(" ", strings.Index(keyword, "m"))
	for i := range p.methods {
		rm := &p.methods[i]
		switch {
		case rm.argVals:
			fmt.Fprintf(b, "%s %s(vals):\n", keyword, rm.name)
		case len(rm.argSet) > 0:
			fmt.Fprintf(b, "%s %s(%s):\n", keyword, rm.name, joinInts(rm.argSet))
		default:
			fmt.Fprintf(b, "%s %s():\n", keyword, rm.name)
		}
		for j := range rm.stmts {
			st := &rm.stmts[j]
			fmt.Fprintf(b, "%s  %s: %s\n", indent, st.label, m.renderSeq(rm, st.body))
		}
	}
}

func joinInts(vs []int32) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

func (m *Model) renderSeq(rm *rMethod, seq []machine.Instr) string {
	parts := make([]string, len(seq))
	for i := range seq {
		parts[i] = m.renderInstr(rm, &seq[i])
	}
	return strings.Join(parts, "; ")
}

func (m *Model) renderInstr(rm *rMethod, in *machine.Instr) string {
	switch in.Op {
	case machine.IRAssign:
		return m.renderLoc(&in.LHS) + " = " + m.renderOp(&in.A)
	case machine.IRAlloc:
		return fmt.Sprintf("%s = alloc(%s)", m.renderLoc(&in.LHS), m.nodeName(in.AllocKind))
	case machine.IRFree:
		return "free(" + m.renderLoc(&in.LHS) + ")"
	case machine.IRLock:
		return "lock(" + m.renderLoc(&in.LHS) + ")"
	case machine.IRUnlock:
		return "unlock(" + m.renderLoc(&in.LHS) + ")"
	case machine.IRCas:
		return m.renderCas(in)
	case machine.IRGoto:
		return "goto " + rm.stmts[in.Target].label
	case machine.IRReturn:
		return "return " + m.renderOp(&in.A)
	case machine.IRIfCmp, machine.IRIfCas:
		var cond string
		if in.Op == machine.IRIfCas {
			cond = m.renderCas(in)
		} else {
			op := "=="
			switch {
			case in.Less:
				op = "<"
			case in.Negate:
				op = "!="
			}
			cond = m.renderOp(&in.A) + " " + op + " " + m.renderOp(&in.B)
		}
		s := "if " + cond + " { " + m.renderSeq(rm, in.Then) + " }"
		if len(in.Else) > 0 {
			s += " else { " + m.renderSeq(rm, in.Else) + " }"
		}
		return s
	}
	return "?"
}

func (m *Model) renderCas(in *machine.Instr) string {
	return fmt.Sprintf("cas(%s, %s, %s)", m.renderLoc(&in.LHS), m.renderOp(&in.A), m.renderOp(&in.B))
}

func (m *Model) renderLoc(l *machine.Loc) string {
	switch l.Kind {
	case machine.LocGlobal:
		return m.prog.globalNames[l.Index]
	case machine.LocLocal:
		return fmt.Sprintf("l%d", l.Index)
	default:
		var base string
		if l.BaseGlobal {
			base = m.prog.globalNames[l.Index]
		} else {
			base = fmt.Sprintf("l%d", l.Index)
		}
		return base + "." + l.Field.String()
	}
}

func (m *Model) renderOp(o *machine.Operand) string {
	switch o.Kind {
	case machine.OperandLit:
		return machine.FormatValue(o.Lit)
	case machine.OperandArg:
		return "arg"
	case machine.OperandSelf:
		return "self"
	default:
		return m.renderLoc(&o.Loc)
	}
}

func (m *Model) nodeName(kind int32) string {
	i := int(kind) - 1
	if i >= 0 && i < len(m.file.Nodes) {
		return m.file.Nodes[i].Name
	}
	return fmt.Sprintf("kind%d", kind)
}
