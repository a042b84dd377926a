// Package ltl implements an action-based, next-free linear temporal
// logic over the maximal executions of a labeled transition system,
// together with a model checker (formula → Büchi automaton → product →
// lasso search).
//
// The paper (Section V.B) observes that divergence-sensitive branching
// bisimilarity preserves all next-free LTL (indeed CTL*) properties, and
// that progress properties such as lock-freedom are expressible in that
// fragment [8, 26]. This package makes those statements executable: the
// canned LockFreedom formula decides exactly what
// core.Session.CheckLockFreeAutoContext decides (no reachable τ-cycle,
// i.e. Δ ≈div Δ/≈), and ≈div-related systems (e.g. the MS queue and its
// Fig. 8 abstraction) receive identical verdicts for every next-free
// formula — properties the test suite checks.
//
// Semantics. Formulas are evaluated over the infinite action sequences of
// maximal paths. A finite maximal path (a terminal state) is extended by
// repeating the synthetic action Terminated forever, so "the system may
// stop" and "the system loops silently" are distinguishable. The logic is
// next-free by construction: there is no X operator, so formulas cannot
// count τ steps — the fragment preserved by ≈div.
package ltl

import (
	"fmt"
	"strings"
)

// Prop is an atomic proposition over actions. Props are compared by Name,
// which must therefore identify the predicate.
type Prop struct {
	// Name renders the proposition and identifies it.
	Name string
	// Holds decides the proposition for one action name. The synthetic
	// terminated action is passed as Terminated.
	Holds func(action string) bool
}

// Terminated is the synthetic action repeated forever after a terminal
// state.
const Terminated = "<end>"

// Formula is a next-free LTL formula over action propositions.
type Formula struct {
	op       opKind
	prop     Prop
	lhs, rhs *Formula
}

type opKind uint8

const (
	opTrue opKind = iota + 1
	opFalse
	opAtom
	opNot
	opAnd
	opOr
	opUntil   // lhs U rhs
	opRelease // lhs R rhs
)

// True is the formula satisfied by every execution.
func True() *Formula { return &Formula{op: opTrue} }

// False is satisfied by no execution.
func False() *Formula { return &Formula{op: opFalse} }

// Atom holds at a position whose action satisfies p.
func Atom(p Prop) *Formula { return &Formula{op: opAtom, prop: p} }

// ActionContains is the proposition "the action name contains substr".
func ActionContains(substr string) Prop {
	return Prop{
		Name:  fmt.Sprintf("act(%q)", substr),
		Holds: func(a string) bool { return strings.Contains(a, substr) },
	}
}

// IsTerminated is the proposition marking the synthetic post-termination
// action.
func IsTerminated() Prop {
	return Prop{Name: "terminated", Holds: func(a string) bool { return a == Terminated }}
}

// Not negates f.
func Not(f *Formula) *Formula { return &Formula{op: opNot, lhs: f} }

// And conjoins formulas.
func And(a, b *Formula) *Formula { return &Formula{op: opAnd, lhs: a, rhs: b} }

// Or disjoins formulas.
func Or(a, b *Formula) *Formula { return &Formula{op: opOr, lhs: a, rhs: b} }

// Until is the strong until a U b.
func Until(a, b *Formula) *Formula { return &Formula{op: opUntil, lhs: a, rhs: b} }

// Release is the dual a R b.
func Release(a, b *Formula) *Formula { return &Formula{op: opRelease, lhs: a, rhs: b} }

// Eventually is F f = true U f.
func Eventually(f *Formula) *Formula { return Until(True(), f) }

// Globally is G f = false R f.
func Globally(f *Formula) *Formula { return Release(False(), f) }

// Implies is material implication.
func Implies(a, b *Formula) *Formula { return Or(Not(a), b) }

// String renders the formula.
func (f *Formula) String() string {
	switch f.op {
	case opTrue:
		return "true"
	case opFalse:
		return "false"
	case opAtom:
		return f.prop.Name
	case opNot:
		return "!(" + f.lhs.String() + ")"
	case opAnd:
		return "(" + f.lhs.String() + " && " + f.rhs.String() + ")"
	case opOr:
		return "(" + f.lhs.String() + " || " + f.rhs.String() + ")"
	case opUntil:
		if f.lhs.op == opTrue {
			return "F(" + f.rhs.String() + ")"
		}
		return "(" + f.lhs.String() + " U " + f.rhs.String() + ")"
	case opRelease:
		if f.lhs.op == opFalse {
			return "G(" + f.rhs.String() + ")"
		}
		return "(" + f.lhs.String() + " R " + f.rhs.String() + ")"
	default:
		return "?"
	}
}

// negationNormal pushes negations to the atoms, returning a formula using
// only opTrue/opFalse/opAtom/negated-atom (encoded as opNot over opAtom)/
// opAnd/opOr/opUntil/opRelease.
func negationNormal(f *Formula, negated bool) *Formula {
	switch f.op {
	case opTrue:
		if negated {
			return False()
		}
		return True()
	case opFalse:
		if negated {
			return True()
		}
		return False()
	case opAtom:
		if negated {
			return &Formula{op: opNot, lhs: f}
		}
		return f
	case opNot:
		return negationNormal(f.lhs, !negated)
	case opAnd, opOr:
		l := negationNormal(f.lhs, negated)
		r := negationNormal(f.rhs, negated)
		op := f.op
		if negated {
			if op == opAnd {
				op = opOr
			} else {
				op = opAnd
			}
		}
		return &Formula{op: op, lhs: l, rhs: r}
	case opUntil, opRelease:
		l := negationNormal(f.lhs, negated)
		r := negationNormal(f.rhs, negated)
		op := f.op
		if negated {
			if op == opUntil {
				op = opRelease
			} else {
				op = opUntil
			}
		}
		return &Formula{op: op, lhs: l, rhs: r}
	default:
		panic("ltl: unknown operator")
	}
}

// LockFreedom is the canonical progress property of Section V.B: on every
// maximal execution, infinitely often either some operation returns or
// the system has terminated. On the bounded most-general-client systems
// of this library it holds exactly when the system has no divergence.
func LockFreedom() *Formula {
	return Globally(Eventually(Or(Atom(ActionContains(".ret.")), Atom(IsTerminated()))))
}

// MethodCompletes is the per-method progress property: every call of
// method m is eventually followed by some return of m (by any thread).
func MethodCompletes(m string) *Formula {
	return Globally(Implies(
		Atom(ActionContains(".call."+m)),
		Eventually(Atom(ActionContains(".ret."+m))),
	))
}
