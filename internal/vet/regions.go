package vet

import "repro/internal/machine"

// Lock-region inference: the co-enabledness half of the confluence
// analysis. Footprint independence alone cannot license the critical
// section of a lock-based algorithm — every statement there reads or
// writes the shared structure the lock protects — but those conflicts
// can never materialize: the lock guarantees no two threads occupy the
// critical region at once, so conflicting region statements are never
// CO-ENABLED and the commutation diamonds the confluence argument needs
// are all vacuous. This file proves the mutual exclusion statically.
//
// A value global L qualifies as a lock when every write to it in
// reachable code takes one of exactly these forms:
//
//   acquire   if cas(L, 0, tok) { ... }   with tok a nonzero literal or
//                                         self (thread tokens are >= 1)
//             lock(L)                     (stores self once L == 0)
//   release   L = 0
//             unlock(L)
//
// and a forward must-analysis over each method's statement graph — held
// on ALL incoming paths, entry not held — shows every release executes
// while held. Under these conditions the token argument goes through
// inductively: L != 0 whenever a thread is at a held statement, at most
// one thread is ever at a held statement (the acquire succeeds only
// from L == 0, which the invariant ties to "no holder"), and nothing
// else can forge the token. A thread that returns while holding merely
// leaks the lock — mutual exclusion survives, so leaking is not
// rejected here (the deadlock it causes is the checker's business, not
// this analysis's).
//
// The held sets feed ReductionArtifact's confluence classification:
// statements holding the same lock mask their mutual conflicts. Reduce
// trusts this proof as it stands; the tests replay the masked pairs
// through machine.ValidateIndependence, which fails when two threads
// inside one region at once run statements that do not commute.

// lockRegion is one verified lock with its per-statement held sets.
type lockRegion struct {
	global int    // index of the lock global
	name   string // its schema name
	// held[mi][si] reports that statement si of method mi executes only
	// while this thread holds the lock.
	held [][]bool
}

// heldEdge is one control edge out of a statement with the lock-held
// value it transfers.
type heldEdge struct {
	target int
	held   bool
}

// inferLockRegions returns the verified lock regions of p, in global
// index order.
func inferLockRegions(p *machine.Program) []lockRegion {
	var out []lockRegion
	for gi, kind := range p.Globals.Kinds {
		if kind != machine.KVal {
			continue
		}
		if r := inferLock(p, gi); r != nil {
			out = append(out, *r)
		}
	}
	return out
}

// inferLock checks whether global g is a well-formed spin lock and, if
// so, computes its held sets. Returns nil when g does not qualify.
func inferLock(p *machine.Program, g int) *lockRegion {
	acquires := 0
	for mi := range p.Methods {
		m := &p.Methods[mi]
		reach := reachableStmts(m)
		for si := range m.Body {
			if !reach[si] {
				continue
			}
			acq, bad := scanLockWrites(m.Body[si].IR, g)
			if bad {
				return nil
			}
			acquires += acq
		}
	}
	if acquires == 0 {
		return nil
	}

	// Forward must-analysis: heldIn per statement, -1 until reached,
	// meet = AND (a statement reachable both held and unheld is unheld).
	// Values only ever decay true -> false, so the fixpoint is cheap.
	held := make([][]int8, len(p.Methods))
	for mi := range p.Methods {
		held[mi] = make([]int8, len(p.Methods[mi].Body))
		for si := range held[mi] {
			held[mi][si] = -1
		}
	}
	type workItem struct{ mi, si int }
	var queue []workItem
	push := func(mi, si int, v bool) {
		nv := int8(0)
		if v {
			nv = 1
		}
		switch held[mi][si] {
		case -1:
			held[mi][si] = nv
			queue = append(queue, workItem{mi, si})
		case 1:
			if nv == 0 {
				held[mi][si] = 0
				queue = append(queue, workItem{mi, si})
			}
		}
	}
	for mi := range p.Methods {
		if len(p.Methods[mi].Body) > 0 {
			push(mi, 0, false)
		}
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		body := p.Methods[it.mi].Body
		edges, _, _, _ := walkHeld(body[it.si].IR, held[it.mi][it.si] == 1, g)
		for _, e := range edges {
			if e.target >= 0 && e.target < len(body) {
				push(it.mi, e.target, e.held)
			}
		}
	}

	// With the converged values, every release must execute while held;
	// otherwise a non-holder could zero the lock out from under the
	// holder and the token argument collapses.
	r := &lockRegion{global: g, name: p.Globals.Names[g], held: make([][]bool, len(p.Methods))}
	any := false
	for mi := range p.Methods {
		body := p.Methods[mi].Body
		r.held[mi] = make([]bool, len(body))
		for si := range body {
			if held[mi][si] < 0 {
				continue
			}
			if _, _, _, viol := walkHeld(body[si].IR, held[mi][si] == 1, g); viol {
				return nil
			}
			if held[mi][si] == 1 {
				r.held[mi][si] = true
				any = true
			}
		}
	}
	if !any {
		return nil
	}
	return r
}

// scanLockWrites classifies every write to global g in the sequence:
// acquire-form IRIfCas and IRLock instructions are counted, release-form
// assigns and IRUnlock are allowed, and anything else that writes g
// disqualifies it.
func scanLockWrites(seq []machine.Instr, g int) (acquires int, bad bool) {
	for i := range seq {
		in := &seq[i]
		writesG := in.LHS.Kind == machine.LocGlobal && in.LHS.Index == g
		switch in.Op {
		case machine.IRAssign:
			if writesG && !(in.A.Kind == machine.OperandLit && in.A.Lit == 0) {
				return 0, true
			}
		case machine.IRAlloc, machine.IRCas:
			if writesG {
				return 0, true
			}
		case machine.IRLock:
			if writesG {
				acquires++
			}
		case machine.IRIfCas:
			if writesG {
				tokOK := (in.B.Kind == machine.OperandLit && in.B.Lit != 0) ||
					in.B.Kind == machine.OperandSelf
				if in.A.Kind != machine.OperandLit || in.A.Lit != 0 || !tokOK {
					return 0, true
				}
				acquires++
			}
			fallthrough
		case machine.IRIfCmp:
			a, b1 := scanLockWrites(in.Then, g)
			c, b2 := scanLockWrites(in.Else, g)
			if b1 || b2 {
				return 0, true
			}
			acquires += a + c
		}
	}
	return acquires, false
}

// walkHeld symbolically executes one statement's instruction tree with
// the lock-held value cur on entry, collecting the control edges it can
// take with the held value each transfers. viol reports a release
// executed while not held. Mirrors RunIR's control flow: a branch arm
// that does not transfer control falls through to the instructions
// after the branch (with the arms' values met by AND when both fall).
func walkHeld(seq []machine.Instr, cur bool, g int) (edges []heldEdge, fall bool, fallVal bool, viol bool) {
	for i := range seq {
		in := &seq[i]
		switch in.Op {
		case machine.IRAssign, machine.IRUnlock:
			if in.LHS.Kind == machine.LocGlobal && in.LHS.Index == g {
				if !cur {
					viol = true
				}
				cur = false
			}
		case machine.IRLock:
			if in.LHS.Kind == machine.LocGlobal && in.LHS.Index == g {
				cur = true // execution continues only with the lock taken
			}
		case machine.IRGoto:
			edges = append(edges, heldEdge{in.Target, cur})
			return edges, false, false, viol
		case machine.IRReturn:
			// Returning while held leaks the lock; mutual exclusion is
			// unaffected, so no violation.
			return edges, false, false, viol
		case machine.IRIfCmp, machine.IRIfCas:
			curThen := cur
			if in.Op == machine.IRIfCas && in.LHS.Kind == machine.LocGlobal && in.LHS.Index == g {
				curThen = true // acquire succeeded on this arm
			}
			eT, fT, vT, violT := walkHeld(in.Then, curThen, g)
			eE, fE, vE, violE := walkHeld(in.Else, cur, g)
			edges = append(edges, eT...)
			edges = append(edges, eE...)
			viol = viol || violT || violE
			switch {
			case fT && fE:
				cur = vT && vE
			case fT:
				cur = vT
			case fE:
				cur = vE
			default:
				return edges, false, false, viol
			}
		}
	}
	return edges, true, cur, viol
}
