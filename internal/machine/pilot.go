package machine

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"sync/atomic"

	"repro/internal/lts"
	"repro/internal/statecodec"
)

// This file implements the structural τ-cycle probe behind the vet
// "taucycle" analyzer. A τ-cycle is a cycle of internal statements a
// thread can traverse solo — with every other thread frozen — without
// performing a visible call or return. Such a cycle is a real divergence
// of the bounded instance (the frozen schedule is one of the explorer's
// interleavings), so any method containing one cannot be lock-free:
// the scheduler can starve the object by running only the spinning
// thread. The converse does not hold — the probe is a cheap sound
// under-approximation, not a replacement for the ≈div check.
//
// The probe works on any Program, including hand-coded registry
// algorithms whose statements are opaque Go closures: it never inspects
// statement bodies, only executes them the way the explorer does. It
// explores a small pilot instance breadth-first and records, per thread,
// every τ-step that stays inside the method. A solo τ-cycle is a cycle
// of one thread's steps, so every nontrivial SCC (or self-loop) of a
// thread's step graph is one. CAS-retry loops terminate solo (the CAS
// succeeds when nobody interferes), so lock-free algorithms are never
// flagged; spins on another thread's state (a hazard-pointer wait, a
// lock acquisition) diverge solo and are.

// PilotOptions bounds the τ-cycle probe.
type PilotOptions struct {
	// Threads and Ops size the pilot instance; 0 defaults to 2.
	Threads int
	Ops     int
	// MaxStates bounds the breadth-first walk; 0 defaults to 60000. A
	// walk that reaches the bound interns no further states, so the probe
	// sees only the cycles among the interned states and the validator
	// checks only those states: truncation weakens coverage, never a
	// reported cycle or violation.
	MaxStates int
}

// TauCycle is one detected solo τ-cycle: a set of statement indices of
// one method through which a thread can loop forever without a visible
// action while every other thread is suspended.
type TauCycle struct {
	// Method is the containing method's name; MethodIndex its index.
	Method      string
	MethodIndex int
	// PCs are the statement indices on the cycle, ascending; Labels the
	// corresponding statement labels.
	PCs    []int
	Labels []string
}

// withDefaults fills the zero fields of o with the pilot defaults.
func (o PilotOptions) withDefaults() PilotOptions {
	if o.Threads <= 0 {
		o.Threads = 2
	}
	if o.Ops <= 0 {
		o.Ops = 2
	}
	if o.MaxStates <= 0 {
		o.MaxStates = 60000
	}
	return o
}

// walkPilot is the breadth-first walk over the reachable states of a
// pilot instance that the τ-cycle probe and the dynamic validators
// share. States are interned under their pilot keys (appendPilotKey), so
// values outside any layout never stop it, and the walk stops interning
// at opt.MaxStates; a state's entry index is its pilot ID. visit sees
// each state as it is dequeued, before its successors are enumerated; a
// non-nil error from visit ends the walk with that error. A model fault
// ends only the faulting thread's expansion of the state (the successors
// it emitted before are kept), and a faulting Program.Init leaves
// nothing to visit. With probe set the walk also records the τ-steps the
// probe reads (pilotWalker.edges).
func walkPilot(p *Program, opt PilotOptions, probe bool, visit func(cur *state) error) (*pilotWalker, error) {
	if fn := pilotObserver.Load(); fn != nil {
		(*fn)(p)
	}
	w := &pilotWalker{x: newExpander(p, opt.Threads), seed: maphash.MakeSeed(), max: opt.MaxStates, view: -1}
	if probe {
		w.edges = lts.NewCSRBuilder(nil, nil)
	}
	if contain(func() { w.intern(initialState(p, Options{Threads: opt.Threads, Ops: opt.Ops}), true) }) != nil {
		return w, nil
	}
	cur := newScratchState(p, opt.Threads)
	for w.src = 0; int(w.src) < w.tab.Len(); w.src++ {
		decodePilotKey(w.tab.Key(w.src), cur)
		if err := visit(cur); err != nil {
			return w, err
		}
		for t := range cur.th {
			th := &cur.th[t]
			w.from = w.edges != nil && th.status == statusRunning
			_ = contain(func() { w.x.expandThread(cur, t, w) })
		}
	}
	return w, nil
}

// pilotObserver, when set, is called at the start of every pilot walk,
// so tests can count the walks an analysis runs.
var pilotObserver atomic.Pointer[func(p *Program)]

// SetPilotObserver installs fn, which must be non-nil, as the pilot-walk
// observer and returns a function restoring the previous one. Intended
// for tests only; fn must be safe for concurrent calls.
func SetPilotObserver(fn func(p *Program)) (restore func()) {
	prev := pilotObserver.Swap(&fn)
	return func() { pilotObserver.Store(prev) }
}

// pilotWalker carries the intern table and the recorded τ-steps of one
// walkPilot run. Entries are numbered in insertion order, so the hash
// seed never reaches any output.
type pilotWalker struct {
	x    expander
	tab  statecodec.Table
	seed maphash.Seed
	buf  []byte
	max  int
	// edges, non-nil when the walk probes, records every τ-step of a
	// running thread t (from is set while such a thread expands) that
	// stays in its method. It holds them over views — view s·threads+t is
	// state s seen by thread t — labelled with the source pc; view is the
	// last view begun and src the state being expanded.
	from  bool
	edges *lts.CSRBuilder
	view  int32
	src   int32
}

// emit implements transSink: intern the successor while the state budget
// lasts, and record it when it is a probed τ-step. A successor is encoded
// only when it is interned or recorded.
func (w *pilotWalker) emit(x *expander, tr symTrans) {
	step := w.from && x.succ.th[tr.t].status == statusRunning
	room := w.tab.Len() < w.max
	if !step && !room {
		return
	}
	dst, ok := w.intern(x.succ, room)
	if step && ok {
		n := int32(len(x.succ.th))
		v := w.src*n + tr.t
		for w.view < v {
			w.view++
			_ = w.edges.BeginState(w.view)
		}
		w.edges.Emit(lts.Tau, lts.LabelID(tr.pc), dst*n+tr.t)
	}
}

// intern canonicalizes st and returns its entry, adding it when add is
// set; ok is false when st is neither present nor added.
func (w *pilotWalker) intern(st *state, add bool) (i int32, ok bool) {
	w.x.canon.run(st)
	w.buf = appendPilotKey(w.buf[:0], st)
	h := maphash.Bytes(w.seed, w.buf)
	if add {
		i, _ = w.tab.Intern(h, w.buf)
		return i, true
	}
	return w.tab.Find(h, w.buf)
}

// tauCycles reads the solo τ-cycles off the recorded steps: every τ-SCC
// of the view graph with an internal edge — more than one view, or a
// self-loop — is one cycle of one thread in one method, through the
// source pcs of its internal edges. Cycles are de-duplicated by (method,
// pc set) and sorted by (method index, pcs).
func (w *pilotWalker) tauCycles() []TauCycle {
	if w.view < 0 { // no step recorded
		return nil
	}
	n := int32(len(w.x.work.th))
	l := w.edges.Build(w.tab.Len()*int(n), 0)
	scc := lts.TauSCCs(l)
	byComp := make(map[int32]*TauCycle)
	for v := int32(0); int(v) < l.NumStates(); v++ {
		c := scc.Comp[v]
		for _, e := range l.Succ(v) {
			if scc.Comp[e.Dst] != c {
				continue
			}
			tc := byComp[c]
			if tc == nil {
				decodePilotKey(w.tab.Key(v/n), w.x.work)
				tc = &TauCycle{MethodIndex: int(w.x.work.th[v%n].method)}
				byComp[c] = tc
			}
			tc.PCs = append(tc.PCs, int(e.Label))
		}
	}
	if len(byComp) == 0 {
		return nil
	}
	out := make([]TauCycle, 0, len(byComp))
	for _, tc := range byComp {
		slices.Sort(tc.PCs)
		tc.PCs = slices.Compact(tc.PCs)
		out = append(out, *tc)
	}
	slices.SortFunc(out, func(a, b TauCycle) int {
		if c := cmp.Compare(a.MethodIndex, b.MethodIndex); c != 0 {
			return c
		}
		return slices.Compare(a.PCs, b.PCs)
	})
	out = slices.CompactFunc(out, func(a, b TauCycle) bool {
		return a.MethodIndex == b.MethodIndex && slices.Equal(a.PCs, b.PCs)
	})
	for i := range out {
		c := &out[i]
		m := &w.x.prog.Methods[c.MethodIndex]
		c.Method = m.Name
		for _, pc := range c.PCs {
			lbl := m.Body[pc].Label
			if lbl == "" {
				lbl = fmt.Sprintf("%s.%d", m.Name, pc)
			}
			c.Labels = append(c.Labels, lbl)
		}
	}
	return out
}

// FindTauCycles probes p for solo τ-cycles and returns them sorted by
// (method index, first statement index). It returns nil for programs
// that fail Validate and for oversized schemas; a statement that faults
// during the probe counts as blocked.
func FindTauCycles(p *Program, opt PilotOptions) []TauCycle {
	// Pilot keys have no value-range limit; the size guards only keep
	// degenerate (fuzzed) programs out of the probe.
	if p.Validate() != nil || p.HeapCap > 255 || p.NLocals > 255 || len(p.Globals.Names) > 255 {
		return nil
	}
	w, _ := walkPilot(p, opt.withDefaults(), true, func(*state) error { return nil })
	return w.tauCycles()
}

// appendPilotKey serializes the canonical state st with every field a
// zig-zag varint, so the common small values take one byte. Unlike the
// exploration encoder it cannot fail on out-of-range values, which
// matters because the probe also runs on defective programs that vet is
// about to warn about.
func appendPilotKey(buf []byte, st *state) []byte {
	for _, v := range st.g.Vars {
		buf = binary.AppendVarint(buf, int64(v))
	}
	buf = binary.AppendVarint(buf, int64(st.hw))
	for i := 1; i <= int(st.hw); i++ {
		n := &st.g.Heap[i]
		m := int32(0)
		if n.Mark {
			m = 1
		}
		for _, v := range [...]int32{n.Kind, n.Val, n.Key, n.Next, n.A, n.B, n.C, n.D, m, n.Lock} {
			buf = binary.AppendVarint(buf, int64(v))
		}
	}
	for ti := range st.th {
		th := &st.th[ti]
		for _, v := range [...]int32{th.status, th.method, th.arg, th.pc, th.ret, th.ops} {
			buf = binary.AppendVarint(buf, int64(v))
		}
		for _, l := range th.locals {
			buf = binary.AppendVarint(buf, int64(l))
		}
	}
	return buf
}

// decodePilotKey reconstructs a state from its appendPilotKey form into
// st, which must be shaped for the program.
func decodePilotKey(buf []byte, st *state) {
	get := func() int32 {
		v, n := binary.Varint(buf)
		buf = buf[n:]
		return int32(v)
	}
	for j := range st.g.Vars {
		st.g.Vars[j] = get()
	}
	st.hw = get()
	clear(st.g.Heap)
	for j := 1; j <= int(st.hw); j++ {
		n := &st.g.Heap[j]
		n.Kind = get()
		n.Val = get()
		n.Key = get()
		n.Next = get()
		n.A = get()
		n.B = get()
		n.C = get()
		n.D = get()
		n.Mark = get() != 0
		n.Lock = get()
	}
	for ti := range st.th {
		th := &st.th[ti]
		th.status = get()
		th.method = get()
		th.arg = get()
		th.pc = get()
		th.ret = get()
		th.ops = get()
		for j := range th.locals {
			th.locals[j] = get()
		}
	}
}
