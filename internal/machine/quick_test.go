package machine

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// quickProgram is a schema-only program used to parameterize the
// canonicalizer in the property tests.
func quickProgram(nGlobals, nLocals int, kinds []VarKind) *Program {
	names := make([]string, nGlobals)
	gk := make([]VarKind, nGlobals)
	for i := range names {
		names[i] = string(rune('a' + i))
		gk[i] = kinds[i%len(kinds)]
	}
	lk := make([]VarKind, nLocals)
	for i := range lk {
		lk[i] = kinds[(i+1)%len(kinds)]
	}
	return &Program{
		Name:       "quick",
		Globals:    Schema{Names: names, Kinds: gk},
		NLocals:    nLocals,
		LocalKinds: lk,
		Methods:    []Method{{Name: "m", Body: []Stmt{{Exec: func(c *Ctx) { c.Return(0) }}}}},
	}
}

// randomState builds a random but well-formed state: live heap cells with
// pointer fields targeting live cells or nil, and globals/locals whose
// values respect their kinds.
func randomState(r *rand.Rand, p *Program, heapCap int) *state {
	st := &state{
		g:  &Global{Vars: make([]int32, len(p.Globals.Names)), Heap: make([]Node, heapCap+1)},
		th: []thread{{locals: make([]int32, p.NLocals)}},
	}
	live := []int32{0} // 0 = nil stays a valid target
	for i := 1; i <= heapCap; i++ {
		if r.Intn(3) > 0 {
			live = append(live, int32(i))
		}
	}
	pick := func() int32 { return live[r.Intn(len(live))] }
	for _, i := range live[1:] {
		st.g.Heap[i] = Node{
			Kind: 1 + int32(r.Intn(3)),
			Val:  int32(r.Intn(5)),
			Key:  int32(r.Intn(5)),
			Next: pick(),
			A:    pick(),
			B:    pick(),
			C:    int32(r.Intn(5)),
			D:    int32(r.Intn(5)),
			Mark: r.Intn(2) == 0,
			Lock: int32(r.Intn(3)),
		}
	}
	genVar := func(k VarKind) int32 {
		switch k {
		case KPtr:
			return pick()
		case KTagged:
			if r.Intn(2) == 0 {
				if p := pick(); p != 0 {
					return Ref(p)
				}
				return 0
			}
			return int32(r.Intn(4))
		default:
			return int32(r.Intn(7)) - 2
		}
	}
	for i, k := range p.Globals.Kinds {
		st.g.Vars[i] = genVar(k)
	}
	for i := 0; i < p.NLocals; i++ {
		st.th[0].locals[i] = genVar(p.localKind(i))
	}
	st.th[0].status = statusRunning
	st.th[0].ops = int32(r.Intn(3))
	return st
}

// TestQuickEncodeDecodeRoundTrip: decode(encode(s)) == s for canonical
// states.
func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := quickProgram(3, 2, []VarKind{KVal, KPtr, KTagged})
		p.HeapCap = 6
		cdc := newCodec(p, Options{Threads: 2, Ops: 2})
		st := randomState(r, p, 6)
		c := newCanonicalizer(p, 7)
		c.run(st)
		buf := cdc.encode(nil, st)
		got := &state{
			g:  &Global{Vars: make([]int32, 3), Heap: make([]Node, 7)},
			th: []thread{{locals: make([]int32, 2)}},
		}
		cdc.decode(buf, got)
		if len(got.g.Vars) != len(st.g.Vars) {
			return false
		}
		for i := range st.g.Vars {
			if got.g.Vars[i] != st.g.Vars[i] {
				return false
			}
		}
		for i := range st.g.Heap {
			if got.g.Heap[i] != st.g.Heap[i] {
				return false
			}
		}
		a, b := st.th[0], got.th[0]
		if a.status != b.status || a.ops != b.ops || a.pc != b.pc || a.ret != b.ret || a.arg != b.arg {
			return false
		}
		for i := range a.locals {
			if a.locals[i] != b.locals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCanonicalizationIdempotent: canonicalizing twice changes
// nothing.
func TestQuickCanonicalizationIdempotent(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := quickProgram(3, 2, []VarKind{KPtr, KTagged, KVal})
		st := randomState(r, p, 6)
		c := newCanonicalizer(p, 7)
		c.run(st)
		first := string(appendPilotKey(nil, st))
		c.run(st)
		second := string(appendPilotKey(nil, st))
		return first == second
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCanonicalizationPermutationInvariant: renaming the heap cells
// by an arbitrary permutation (applied consistently to every pointer)
// must not change the canonical encoding — the core state-merging
// property of the explorer.
func TestQuickCanonicalizationPermutationInvariant(t *testing.T) {
	const heapCap = 6
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := quickProgram(3, 2, []VarKind{KPtr, KTagged, KVal})
		st := randomState(r, p, heapCap)

		// Build a random permutation of 1..heapCap (0 fixed).
		perm := make([]int32, heapCap+1)
		order := r.Perm(heapCap)
		for i, o := range order {
			perm[i+1] = int32(o + 1)
		}
		mapPtr := func(v int32) int32 { return perm[v] }
		mapVar := func(k VarKind, v int32) int32 {
			switch k {
			case KPtr:
				return mapPtr(v)
			case KTagged:
				if IsRef(v) {
					return Ref(mapPtr(Deref(v)))
				}
			}
			return v
		}
		permuted := st.clone()
		for i := range permuted.g.Heap {
			permuted.g.Heap[i] = Node{}
		}
		for i := 1; i <= heapCap; i++ {
			n := st.g.Heap[i]
			if n == (Node{}) {
				continue
			}
			n.Next = mapPtr(n.Next)
			n.A = mapPtr(n.A)
			n.B = mapPtr(n.B)
			permuted.g.Heap[perm[i]] = n
		}
		for i, k := range p.Globals.Kinds {
			permuted.g.Vars[i] = mapVar(k, st.g.Vars[i])
		}
		for i := 0; i < p.NLocals; i++ {
			permuted.th[0].locals[i] = mapVar(p.localKind(i), st.th[0].locals[i])
		}

		c := newCanonicalizer(p, heapCap+1)
		c.run(st)
		a := string(appendPilotKey(nil, st))
		c.run(permuted)
		b := string(appendPilotKey(nil, permuted))
		return a == b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
