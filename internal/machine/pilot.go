package machine

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
	"unsafe"
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
// explores a small pilot instance breadth-first to collect genuinely
// reachable states, then runs a memoized depth-first solo walk from
// every running thread of every state. CAS-retry loops terminate solo
// (the CAS succeeds when nobody interferes), so lock-free algorithms
// are never flagged; spins on another thread's state (a hazard-pointer
// wait, a lock acquisition) diverge solo and are.
//
// CheckReductionPilot restricts the probe to the statements a reduction
// prioritizes and checks lock regions in the same walk.

// PilotOptions bounds the τ-cycle probe.
type PilotOptions struct {
	// Threads and Ops size the pilot instance; 0 defaults to 2.
	Threads int
	Ops     int
	// MaxStates bounds the breadth-first reachable-state collection;
	// 0 defaults to 60000. Hitting the bound truncates coverage (fewer
	// probe states), never correctness.
	MaxStates int
	// MaxViews bounds the total number of distinct solo-run views the
	// depth-first walks may visit; 0 defaults to 200000.
	MaxViews int
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
	if o.MaxViews <= 0 {
		o.MaxViews = 200000
	}
	return o
}

// walkPilot is the breadth-first walk over the reachable states of a
// pilot instance that the τ-cycle probe and the dynamic validators
// share. States are interned under the raw encoding (encodeRaw), so
// values outside any layout never stop it, and the collection stops
// growing at opt.MaxStates. visit sees each state as it is dequeued,
// before its successors are enumerated; a non-nil error from visit ends
// the walk with that error. A model fault blocks the faulting state where
// it happened (the successors emitted before it are kept), and a faulting
// Program.Init leaves nothing to visit.
func walkPilot(p *Program, opt PilotOptions, visit func(cur *state) error) error {
	if fn := pilotObserver.Load(); fn != nil {
		(*fn)(p)
	}
	w := &pilotWalker{x: newExpander(p, opt.Threads), ids: make(map[string]struct{}, opt.MaxStates), max: opt.MaxStates}
	if contain(func() { w.intern(initialState(p, Options{Threads: opt.Threads, Ops: opt.Ops})) }) != nil {
		return nil
	}
	cur := newScratchState(p, opt.Threads)
	for si := 0; si < len(w.keys); si++ {
		decodeRaw(w.keys[si], cur)
		if err := visit(cur); err != nil {
			return err
		}
		_, _ = w.x.expand(cur, nil, w)
	}
	return nil
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

// pilotWalker carries the BFS set of one walkPilot run.
type pilotWalker struct {
	x    expander
	ids  map[string]struct{}
	keys [][]byte
	buf  []byte
	max  int
}

// emit implements transSink: intern the successor while the state budget
// lasts.
func (w *pilotWalker) emit(x *expander, _ symTrans) bool {
	if len(w.keys) < w.max {
		w.intern(x.succ)
	}
	return true
}

// bytesString views b as a string without copying. The caller must never
// mutate b afterwards; interned state keys are write-once.
func bytesString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

func (w *pilotWalker) intern(st *state) {
	w.x.canon.run(st)
	w.buf = encodeRaw(w.buf[:0], st, -1)
	if _, ok := w.ids[string(w.buf)]; ok {
		return
	}
	key := append([]byte(nil), w.buf...)
	w.ids[bytesString(key)] = struct{}{}
	w.keys = append(w.keys, key)
}

// FindTauCycles probes p for solo τ-cycles and returns them sorted by
// (method index, first statement index). It returns nil for programs the
// pilot cannot encode (oversized schemas); a statement that faults during
// the probe counts as blocked.
func FindTauCycles(p *Program, opt PilotOptions) []TauCycle {
	_, cycles := CheckReductionPilot(p, opt, nil, func(int, int) bool { return true })
	return cycles
}

// CheckReductionPilot runs the dynamic safety net behind vet's
// τ-confluence analysis in one pilot walk over p. held[r](mi, pc) claims
// statement pc of method mi for critical region r; refuted[r] reports a
// pilot state with two running threads inside region r. cycles are the
// solo τ-cycles through the statements confluent accepts: solo walks
// start and step only there. A program that fails Validate refutes every
// claim; truncation at opt.MaxStates or opt.MaxViews weakens coverage,
// never a reported refutation or cycle.
func CheckReductionPilot(p *Program, opt PilotOptions, held []func(mi, pc int) bool, confluent func(mi, pc int) bool) (refuted []bool, cycles []TauCycle) {
	refuted = make([]bool, len(held))
	if p.Validate() != nil {
		for r := range refuted {
			refuted[r] = true
		}
		return refuted, nil
	}
	// The probe stores raw 4-byte field encodings, so unlike the state
	// encoder it has no value-range limit; the size guards only keep
	// degenerate (fuzzed) programs from allocating absurd scratch states.
	probe := p.HeapCap <= 255 && p.NLocals <= 255 && len(p.Globals.Names) <= 255
	if !probe && len(held) == 0 {
		return refuted, nil
	}
	opt = opt.withDefaults()
	d := &tauProbe{
		prog:   p,
		opt:    opt,
		solo:   newExpander(p, opt.Threads),
		follow: confluent,
		color:  make(map[string]int8),
		gray:   make(map[string]int),
		found:  make(map[string]TauCycle),
	}
	_ = walkPilot(p, opt, func(cur *state) error {
		for r, h := range held {
			inside := 0
			for t := range cur.th {
				if th := &cur.th[t]; th.status == statusRunning && h(int(th.method), int(th.pc)) {
					inside++
				}
			}
			refuted[r] = refuted[r] || inside > 1
		}
		for t := range cur.th {
			th := &cur.th[t]
			if probe && th.status == statusRunning && d.views < opt.MaxViews && confluent(int(th.method), int(th.pc)) {
				d.stack = d.stack[:0]
				d.walk(cur, t, int(th.method))
			}
		}
		return nil
	})
	return refuted, d.collect()
}

// tauProbe carries the solo-walk state of one τ-cycle probe.
type tauProbe struct {
	prog *Program
	opt  PilotOptions
	solo expander
	buf  []byte
	// follow restricts the probe: walks start only at statements it
	// accepts and never step to any other.
	follow func(mi, pc int) bool

	// Solo-walk memo. A "view" is the full canonical state plus the
	// walking thread's index; its future under a solo schedule depends on
	// nothing else, so colors are sound across probe states. color is 1
	// while the view is on the walk stack (gray) and 2 when exhausted
	// (black); gray maps an on-stack view to its stack index.
	color map[string]int8
	gray  map[string]int
	stack []int // pc per stack entry; the method is fixed during a walk
	views int

	found map[string]TauCycle // de-duplicated by (method, pc set)
}

// walk runs the memoized depth-first solo walk of thread t from the
// canonical state st. It returns when the view is exhausted; cycles are
// recorded into d.found as they close.
func (d *tauProbe) walk(st *state, t, mi int) {
	d.views++
	if d.views > d.opt.MaxViews {
		return
	}
	d.buf = encodeRaw(d.buf[:0], st, t)
	key := string(d.buf)
	switch d.color[key] {
	case 1: // gray: the walk closed a cycle
		d.record(mi, d.stack[d.gray[key]:])
		return
	case 2: // black: already exhausted, no new cycles through here
		return
	}
	th := &st.th[t]
	if th.status != statusRunning {
		// A return (or completed method) is a visible-action boundary;
		// the solo τ-path ends here.
		d.color[key] = 2
		return
	}
	pc := int(th.pc)
	d.color[key] = 1
	d.gray[key] = len(d.stack)
	d.stack = append(d.stack, pc)

	// Successors are materialized before any recursion: the recursive
	// walks reuse d.solo (its work state and outcome buffer), so neither
	// may be read after the first recursive call.
	var succs []*state
	st.copyInto(d.solo.work)
	if contain(func() {
		d.solo.step(d.solo.work, t)
		for _, out := range d.solo.ctx.outs {
			if out.pc < 0 || int(out.pc) >= len(d.prog.Methods[mi].Body) {
				continue // a return is a visible boundary: the path ends
			}
			if !d.follow(mi, int(out.pc)) {
				continue // decided before the successor is built
			}
			next := d.solo.work.clone()
			next.th[t].pc = out.pc
			d.solo.canon.run(next)
			succs = append(succs, next)
		}
	}) != nil {
		succs = nil // a faulting statement cannot continue the solo path
	}
	for _, next := range succs {
		d.walk(next, t, mi)
	}

	d.stack = d.stack[:len(d.stack)-1]
	delete(d.gray, key)
	d.color[key] = 2
}

// record de-duplicates a closed cycle by its exact (method, pc-set)
// identity.
func (d *tauProbe) record(mi int, cyclePCs []int) {
	pcs := slices.Clone(cyclePCs)
	slices.Sort(pcs)
	pcs = slices.Compact(pcs)
	k := fmt.Sprint(mi, pcs)
	if _, dup := d.found[k]; !dup {
		d.found[k] = TauCycle{MethodIndex: mi, PCs: pcs}
	}
}

// collect renders the de-duplicated cycles in deterministic order.
func (d *tauProbe) collect() []TauCycle {
	if len(d.found) == 0 {
		return nil
	}
	out := make([]TauCycle, 0, len(d.found))
	for _, c := range d.found {
		m := &d.prog.Methods[c.MethodIndex]
		c.Method = m.Name
		for _, pc := range c.PCs {
			lbl := m.Body[pc].Label
			if lbl == "" {
				lbl = fmt.Sprintf("%s.%d", m.Name, pc)
			}
			c.Labels = append(c.Labels, lbl)
		}
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b TauCycle) int {
		if c := cmp.Compare(a.MethodIndex, b.MethodIndex); c != 0 {
			return c
		}
		return slices.Compare(a.PCs, b.PCs)
	})
	return out
}

// encodeRaw serializes a state (and a distinguishing thread index for
// solo-walk views; -1 for plain states) with 4 bytes per field. Unlike
// the exploration encoder it cannot fail on out-of-range values, which
// matters because the probe also runs on defective programs that vet is
// about to warn about.
func encodeRaw(buf []byte, st *state, viewThread int) []byte {
	put := func(v int32) {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	put(int32(viewThread))
	for _, v := range st.g.Vars {
		put(v)
	}
	hw := 0
	for i := len(st.g.Heap) - 1; i >= 1; i-- {
		if st.g.Heap[i] != (Node{}) {
			hw = i
			break
		}
	}
	put(int32(hw))
	for i := 1; i <= hw; i++ {
		n := &st.g.Heap[i]
		m := int32(0)
		if n.Mark {
			m = 1
		}
		for _, v := range []int32{n.Kind, n.Val, n.Key, n.Next, n.A, n.B, n.C, n.D, m, n.Lock} {
			put(v)
		}
	}
	for ti := range st.th {
		th := &st.th[ti]
		for _, v := range []int32{th.status, th.method, th.arg, th.pc, th.ret, th.ops} {
			put(v)
		}
		for _, l := range th.locals {
			put(l)
		}
	}
	return buf
}

// decodeRaw reconstructs a state from its encodeRaw form into st, which
// must be shaped for the program. The leading view-thread field is
// skipped.
func decodeRaw(buf []byte, st *state) {
	i := 0
	get := func() int32 {
		v := int32(buf[i]) | int32(buf[i+1])<<8 | int32(buf[i+2])<<16 | int32(buf[i+3])<<24
		i += 4
		return v
	}
	_ = get() // view thread
	for j := range st.g.Vars {
		st.g.Vars[j] = get()
	}
	hw := int(get())
	for j := range st.g.Heap {
		st.g.Heap[j] = Node{}
	}
	for j := 1; j <= hw; j++ {
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
