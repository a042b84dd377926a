package machine

// Thread execution status.
const (
	statusIdle int32 = iota
	statusRunning
	statusReturning
)

// thread is the per-thread part of an exploration state.
type thread struct {
	status int32
	method int32
	arg    int32
	pc     int32
	ret    int32
	ops    int32
	locals []int32
}

// state is one global state of the object system: shared state plus all
// thread states.
type state struct {
	g  *Global
	th []thread
	// hw is the heap watermark: the index of the highest non-zero heap
	// cell, 0 for an empty heap. decode and the canonicalizer set it and
	// encode trusts it. A step that neither allocates nor frees keeps it:
	// its field writes go through live references, whose cells keep
	// their non-zero Kind.
	hw int32
}

// setWatermark sets st.hw to the highest non-zero heap cell at or below
// bound; every cell above bound must be zero.
func (s *state) setWatermark(bound int) {
	h := s.g.Heap
	for bound > 0 && h[bound] == (Node{}) {
		bound--
	}
	s.hw = int32(bound)
}

func (s *state) clone() *state {
	ns := &state{g: s.g.Clone(), th: make([]thread, len(s.th)), hw: s.hw}
	for i, t := range s.th {
		nt := t
		nt.locals = make([]int32, len(t.locals))
		copy(nt.locals, t.locals)
		ns.th[i] = nt
	}
	return ns
}

// copyInto overwrites dst with src without allocating; both states must
// have the same shape (same program, same thread count).
func (s *state) copyInto(dst *state) {
	copy(dst.g.Vars, s.g.Vars)
	copy(dst.g.Heap, s.g.Heap)
	dst.hw = s.hw
	for i := range s.th {
		locals := dst.th[i].locals
		copy(locals, s.th[i].locals)
		dst.th[i] = s.th[i]
		dst.th[i].locals = locals
	}
}

// canonicalizer renames reachable heap cells into a dense prefix in
// deterministic traversal order and drops unreachable cells. Buffers are
// reused across calls.
type canonicalizer struct {
	prog    *Program
	old2new []int32
	order   []int32 // old indices in assignment order
	newHeap []Node
}

func newCanonicalizer(p *Program, heapLen int) *canonicalizer {
	c := isolatedNew[canonicalizer]()
	c.prog = p
	c.old2new = isolated[int32](heapLen, heapLen)
	c.order = isolated[int32](0, heapLen) // each live cell once
	c.newHeap = isolated[Node](heapLen, heapLen)
	return c
}

// run canonicalizes st in place.
func (c *canonicalizer) run(st *state) {
	g := st.g
	for i := range c.old2new {
		c.old2new[i] = 0
	}
	c.order = c.order[:0]
	next := int32(1)
	visit := func(p int32) int32 {
		if p <= 0 {
			return 0
		}
		if n := c.old2new[p]; n != 0 {
			return n
		}
		c.old2new[p] = next
		c.order = append(c.order, p)
		next++
		return next - 1
	}
	remapVar := func(kind VarKind, v int32) int32 {
		switch kind {
		case KPtr:
			return visit(v)
		case KTagged:
			if IsRef(v) {
				return Ref(visit(Deref(v)))
			}
		}
		return v
	}
	// Roots: globals, then each thread's locals, in declaration order.
	for i, kind := range c.prog.Globals.Kinds {
		g.Vars[i] = remapVar(kind, g.Vars[i])
	}
	for ti := range st.th {
		th := &st.th[ti]
		for li := range th.locals {
			th.locals[li] = remapVar(c.prog.localKind(li), th.locals[li])
		}
	}
	// Breadth-first over pointer fields; c.order grows as we go.
	for qi := 0; qi < len(c.order); qi++ {
		old := c.order[qi]
		n := g.Heap[old]
		n.Next = visit(n.Next)
		n.A = visit(n.A)
		n.B = visit(n.B)
		c.newHeap[c.old2new[old]] = n
	}
	live := int(next)
	for i := live; i < len(c.newHeap); i++ {
		c.newHeap[i] = Node{}
	}
	c.newHeap[0] = Node{}
	// Swap heaps; the old backing array becomes the next scratch buffer.
	g.Heap, c.newHeap = c.newHeap[:len(g.Heap)], g.Heap
	// Cells past the live prefix are zero; a live cell can be zero only
	// when a dangling pointer keeps a freed cell reachable.
	st.setWatermark(live - 1)
}

// EncodeMin and EncodeMax bound the structural value window: the range
// StructuralLayout gives every value slot the program's structure does
// not bound more tightly. A state holding a value outside the window can
// only be encoded under a layout that widens the slot (vet.StateLayout
// does so for values its interval analysis proves reachable); without
// one, the explorer reports the offending successor as a
// *ModelFaultError.
const (
	EncodeMin = -64
	EncodeMax = 191
)
