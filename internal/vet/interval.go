package vet

import (
	"math"

	"repro/internal/machine"
)

// interval is a classic integer interval with an explicit bottom (no
// value observed yet). BBVL has no arithmetic — every value a program
// stores traces back to a literal, a method argument, a thread token or
// a heap index — so the lattice stays shallow and fixpoints converge in
// a handful of rounds without widening tricks.
type interval struct {
	lo, hi int32
	def    bool // false = bottom
}

func iv(lo, hi int32) interval { return interval{lo: lo, hi: hi, def: true} }

func single(v int32) interval { return iv(v, v) }

func top() interval { return iv(math.MinInt32, math.MaxInt32) }

func (a interval) isTop() bool {
	return a.def && a.lo == math.MinInt32 && a.hi == math.MaxInt32
}

// join is the lattice union (convex hull).
func (a interval) join(b interval) interval {
	if !a.def {
		return b
	}
	if !b.def {
		return a
	}
	if b.lo < a.lo {
		a.lo = b.lo
	}
	if b.hi > a.hi {
		a.hi = b.hi
	}
	return a
}

// meet is the lattice intersection; the result may be bottom.
func (a interval) meet(b interval) interval {
	if !a.def || !b.def {
		return interval{}
	}
	if b.lo > a.lo {
		a.lo = b.lo
	}
	if b.hi < a.hi {
		a.hi = b.hi
	}
	if a.lo > a.hi {
		return interval{}
	}
	return a
}

func (a interval) eq(b interval) bool { return a == b }

// disjoint reports whether no value can be in both intervals.
func (a interval) disjoint(b interval) bool {
	if !a.def || !b.def {
		return true
	}
	return a.hi < b.lo || b.hi < a.lo
}

// singleton reports whether the interval holds exactly one value.
func (a interval) singleton() bool { return a.def && a.lo == a.hi }

// cmpVerdict is the three-valued outcome of a branch condition.
type cmpVerdict int8

const (
	cmpUnknown cmpVerdict = iota
	cmpAlways
	cmpNever
)

// compare decides an equality test between two intervals, when it can.
func compare(a, b interval) cmpVerdict {
	switch {
	case a.disjoint(b):
		return cmpNever
	case a.singleton() && b.singleton() && a.lo == b.lo:
		return cmpAlways
	default:
		return cmpUnknown
	}
}

// compareLess decides a < b between two intervals, when it can.
func compareLess(a, b interval) cmpVerdict {
	switch {
	case !a.def || !b.def:
		return cmpUnknown
	case a.hi < b.lo:
		return cmpAlways
	case a.lo >= b.hi:
		return cmpNever
	default:
		return cmpUnknown
	}
}

// condVerdict decides an IRIfCmp condition (==, != or <) over its
// operand intervals, when it can.
func condVerdict(in *machine.Instr, a, b interval) cmpVerdict {
	if in.Less {
		return compareLess(a, b)
	}
	v := compare(a, b)
	if in.Negate {
		switch v {
		case cmpAlways:
			v = cmpNever
		case cmpNever:
			v = cmpAlways
		}
	}
	return v
}

func joinSlices(dst, src []interval) bool {
	changed := false
	for i := range dst {
		j := dst[i].join(src[i])
		if j != dst[i] {
			dst[i] = j
			changed = true
		}
	}
	return changed
}
