package vet

import (
	"slices"

	"repro/internal/machine"
)

// Node-lock ownership: the lock-based lists lock individual nodes, so a
// field access through a local whose node the thread holds locked is a
// HELD access (the held field slots of independence.go). Two held
// accesses never touch the same node — a lock has one holder — so they
// commute whatever they read or write; a held access still conflicts
// with an unheld access of the same field.
//
// heldLocals is a forward must-analysis over one method's statement
// graph. Per ptr local it keeps -1 (not provably held) or a class:
// locals in one class may point to the same node, locals in different
// classes point to different nodes. Locals are zeroed at call, so the
// entry holds nothing. Transfer per instruction:
//
//	lock(l)     l gets a class of its own: the acquire went through,
//	            so l's node is not one this thread already held (that
//	            acquire would block forever)
//	unlock(l)   l's class is released; when l is not provably held it
//	            may alias any held local, and every class is released
//	l = m       l joins m's class when m is a local; any other write
//	            to l (alloc included) leaves l not held
//
// At a join a local stays held only when held on every path with the
// same aliasing: a local that shares a class with another on one path
// but not on the other is dropped.

// heldLocals returns the converged entry classes of every statement of
// m; unreached statements hold nothing.
func heldLocals(m *machine.Method, nlocals int) [][]int {
	n := len(m.Body)
	entry := make([][]int, n)
	if n == 0 {
		return entry
	}
	entry[0] = noneHeld(nlocals)
	for changed := true; changed; {
		changed = false
		for si := 0; si < n; si++ {
			if entry[si] == nil {
				continue
			}
			edges, _ := walkHeldLocals(m.Body[si].IR, slices.Clone(entry[si]), nil)
			for _, e := range edges {
				if e.target < 0 || e.target >= n {
					continue
				}
				if entry[e.target] == nil {
					entry[e.target] = e.held
					changed = true
				} else if next := meetHeld(entry[e.target], e.held); !slices.Equal(next, entry[e.target]) {
					entry[e.target] = next
					changed = true
				}
			}
		}
	}
	for si := range entry {
		if entry[si] == nil {
			entry[si] = noneHeld(nlocals)
		}
	}
	return entry
}

// stableHeld marks the locals held at entry that stay held through the
// whole statement: it unlocks nothing and never assigns them.
func stableHeld(entry []int, seq []machine.Instr) []bool {
	if seqHasOp(seq, machine.IRUnlock) {
		return nil
	}
	out := make([]bool, len(entry))
	for l, c := range entry {
		out[l] = c >= 0 && !assignsLocal(seq, l)
	}
	return out
}

// assignsLocal reports whether the tree writes local l.
func assignsLocal(seq []machine.Instr, l int) bool {
	for i := range seq {
		in := &seq[i]
		if (in.Op == machine.IRAssign || in.Op == machine.IRAlloc) && in.LHS.Kind == machine.LocLocal && in.LHS.Index == l {
			return true
		}
		if assignsLocal(in.Then, l) || assignsLocal(in.Else, l) {
			return true
		}
	}
	return false
}

type heldLocalsEdge struct {
	target int
	held   []int
}

// walkHeldLocals applies one instruction tree to h (in place),
// collecting goto edges. The bool reports a fall-through, with h then
// holding the meet of the falling paths.
func walkHeldLocals(seq []machine.Instr, h []int, edges []heldLocalsEdge) ([]heldLocalsEdge, bool) {
	for i := range seq {
		in := &seq[i]
		local := -1
		if in.LHS.Kind == machine.LocLocal || (in.LHS.Kind == machine.LocField && !in.LHS.BaseGlobal) {
			local = in.LHS.Index
		}
		if local >= len(h) {
			local = -1
		}
		switch in.Op {
		case machine.IRAssign, machine.IRAlloc:
			if in.LHS.Kind == machine.LocLocal && local >= 0 {
				h[local] = -1
				if src := in.A.Loc; in.Op == machine.IRAssign && in.A.Kind == machine.OperandLoc &&
					src.Kind == machine.LocLocal && src.Index >= 0 && src.Index < len(h) {
					h[local] = h[src.Index]
				}
			}
		case machine.IRLock:
			if in.LHS.Kind == machine.LocField && local >= 0 {
				h[local] = len(h) // a class no local has yet
			}
		case machine.IRUnlock:
			if in.LHS.Kind == machine.LocField {
				c := -1
				if local >= 0 {
					c = h[local]
				}
				for l := range h {
					if c < 0 || h[l] == c {
						h[l] = -1
					}
				}
			}
		case machine.IRGoto:
			return append(edges, heldLocalsEdge{in.Target, slices.Clone(h)}), false
		case machine.IRReturn:
			return edges, false
		case machine.IRIfCmp, machine.IRIfCas:
			ht, he := slices.Clone(h), slices.Clone(h)
			var fallT, fallE bool
			edges, fallT = walkHeldLocals(in.Then, ht, edges)
			edges, fallE = walkHeldLocals(in.Else, he, edges)
			switch {
			case fallT && fallE:
				copy(h, meetHeld(ht, he))
			case fallT:
				copy(h, ht)
			case fallE:
				copy(h, he)
			default:
				return edges, false
			}
		}
		canonHeld(h)
	}
	return edges, true
}

func noneHeld(n int) []int {
	h := make([]int, n)
	for i := range h {
		h[i] = -1
	}
	return h
}

// canonHeld renames every class to the lowest local in it, so equal
// facts compare equal.
func canonHeld(h []int) {
	rename := map[int]int{}
	for l, c := range h {
		if c < 0 {
			continue
		}
		if r, ok := rename[c]; ok {
			h[l] = r
		} else {
			rename[c] = l
			h[l] = l
		}
	}
}

// meetHeld joins two facts: a local stays held when held on both sides
// and every other such local shares its class on both sides or on
// neither. The result keeps a's classes.
func meetHeld(a, b []int) []int {
	out := noneHeld(len(a))
	for l := range a {
		if a[l] < 0 || b[l] < 0 {
			continue
		}
		out[l] = a[l]
		for m := range a {
			if a[m] >= 0 && b[m] >= 0 && (a[m] == a[l]) != (b[m] == b[l]) {
				out[l] = -1
				break
			}
		}
	}
	canonHeld(out)
	return out
}
