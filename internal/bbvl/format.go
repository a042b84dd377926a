package bbvl

import (
	"fmt"
	"strings"
)

// Format renders the model back to canonical BBVL source. The output is
// not the original text — comments are dropped, spacing and the heap
// default are normalized — but it parses, checks and compiles to a
// program with the same machine.Fingerprint for every instance size
// (format_test.go holds every example model to that round trip).
func (m *Model) Format() string {
	f := m.file
	var b strings.Builder
	fmt.Fprintf(&b, "model %s\n", f.Name)
	if f.LockBased {
		b.WriteString("\nlockbased\n")
	}
	for _, n := range f.Nodes {
		fmt.Fprintf(&b, "\nnode %s {\n", n.Name)
		for _, fd := range n.Fields {
			fmt.Fprintf(&b, "  %s: %s\n", fd.Name, fd.Class)
		}
		b.WriteString("}\n")
	}
	if len(f.Globals) > 0 {
		b.WriteString("\nglobals {\n")
		for _, g := range f.Globals {
			fmt.Fprintf(&b, "  %s: %s\n", g.Name, g.Kind)
		}
		b.WriteString("}\n")
	}
	b.WriteString("\n" + formatHeap(f.Heap) + "\n")
	spec := "spec " + f.Spec.Kind
	if f.Spec.Contains {
		spec += " contains"
	}
	b.WriteString("\n" + spec + "\n")
	if len(f.Init) > 0 {
		b.WriteString("\ninit {\n")
		for _, l := range f.InitLocals {
			fmt.Fprintf(&b, "  var %s: %s\n", l.Name, l.Kind)
		}
		for _, in := range f.Init {
			fmt.Fprintf(&b, "  %s\n", formatInstr(in))
		}
		b.WriteString("}\n")
	}
	for _, md := range f.Methods {
		formatMethod(&b, md, "")
	}
	if f.Abstract != nil {
		b.WriteString("\nabstract {\n")
		for _, md := range f.Abstract.Methods {
			formatMethod(&b, md, "  ")
		}
		b.WriteString("}\n")
	}
	return b.String()
}

// formatHeap renders the heap bound, making the implicit default
// explicit.
func formatHeap(h *HeapDecl) string {
	switch {
	case h == nil:
		return "heap totalops + 1"
	case h.TotalOps && h.Extra > 0:
		return fmt.Sprintf("heap totalops + %d", h.Extra)
	case h.TotalOps:
		return "heap totalops"
	default:
		return fmt.Sprintf("heap %d", h.Extra)
	}
}

func formatMethod(b *strings.Builder, md *MethodDecl, indent string) {
	arg := ""
	switch {
	case md.ArgVals:
		arg = md.ArgName + ": vals"
	case len(md.ArgSet) > 0:
		parts := make([]string, len(md.ArgSet))
		for i, v := range md.ArgSet {
			parts[i] = fmt.Sprintf("%d", v)
		}
		arg = md.ArgName + ": {" + strings.Join(parts, ", ") + "}"
	}
	fmt.Fprintf(b, "\n%smethod %s(%s) {\n", indent, md.Name, arg)
	for _, l := range md.Locals {
		fmt.Fprintf(b, "%s  var %s: %s\n", indent, l.Name, l.Kind)
	}
	for _, s := range md.Stmts {
		fmt.Fprintf(b, "%s  %s: %s\n", indent, s.Label, formatSeq(s.Body))
	}
	fmt.Fprintf(b, "%s}\n", indent)
}

func formatSeq(seq []Instr) string {
	parts := make([]string, len(seq))
	for i, in := range seq {
		parts[i] = formatInstr(in)
	}
	return strings.Join(parts, "; ")
}

func formatInstr(in Instr) string {
	switch i := in.(type) {
	case *Assign:
		if i.AllocKind != "" {
			return fmt.Sprintf("%s = alloc(%s)", formatLValue(i.LHS), i.AllocKind)
		}
		return formatLValue(i.LHS) + " = " + formatExpr(i.RHS)
	case *Goto:
		return "goto " + i.Label
	case *Return:
		return "return " + formatExpr(i.Val)
	case *Free:
		return "free(" + i.Name + ")"
	case *Lock:
		if i.Unlock {
			return "unlock(" + i.Name + ")"
		}
		return "lock(" + i.Name + ")"
	case *CasStmt:
		return formatCas(i.Cas)
	case *If:
		s := "if " + formatCond(i.Cond) + " { " + formatSeq(i.Then) + " }"
		if i.HasElse {
			s += " else { " + formatSeq(i.Else) + " }"
		}
		return s
	}
	return "?"
}

func formatCond(c *CondExpr) string {
	if c.Cas != nil {
		return formatCas(c.Cas)
	}
	return formatExpr(c.X) + " " + c.Op + " " + formatExpr(c.Y)
}

func formatCas(c *Cas) string {
	return fmt.Sprintf("cas(%s, %s, %s)", formatLValue(c.Target), formatExpr(c.Exp), formatExpr(c.NewVal))
}

func formatLValue(lv LValue) string {
	if lv.Field != "" {
		return lv.Base + "." + lv.Field
	}
	return lv.Base
}

func formatExpr(e *Expr) string {
	if e.IsInt {
		return fmt.Sprintf("%d", e.Int)
	}
	if e.Field != "" {
		return e.Name + "." + e.Field
	}
	return e.Name
}
