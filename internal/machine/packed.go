package machine

import "repro/internal/statecodec"

// StructuralLayout derives a packed state layout for p from program
// structure alone, with no dataflow information:
//
//   - pointer slots (KPtr variables and locals, the Next/A/B node
//     fields, the heap watermark) are bounded by [0, HeapCap] — the
//     canonicalizer renames every live cell into that range;
//   - thread bookkeeping is bounded by its mechanics: status by the
//     three status codes, method by the method count, pc by the longest
//     body, ops by the operation budget, arg by the declared argument
//     domains, lock owners by the thread count, mark bits by one bit;
//   - every other value slot gets the value window [EncodeMin, EncodeMax].
//
// It applies to every program, including registry programs without IR.
// vet.StateLayout narrows the value slots further using its interval
// fixpoint when the program carries IR.
func StructuralLayout(p *Program, threads, ops int) *statecodec.Layout {
	hc := int32(p.HeapCap)
	window := statecodec.MakeSlot(EncodeMin, EncodeMax)
	ptr := statecodec.MakeSlot(0, hc)

	lay := &statecodec.Layout{
		Globals:   make([]statecodec.Slot, len(p.Globals.Kinds)),
		Watermark: ptr,
		Locals:    make([]statecodec.Slot, p.NLocals),
	}
	for i, k := range p.Globals.Kinds {
		if k == KPtr {
			lay.Globals[i] = ptr
		} else {
			lay.Globals[i] = window
		}
	}
	lay.Node[statecodec.NodeKind] = window
	lay.Node[statecodec.NodeVal] = window
	lay.Node[statecodec.NodeKey] = window
	lay.Node[statecodec.NodeNext] = ptr
	lay.Node[statecodec.NodeA] = ptr
	lay.Node[statecodec.NodeB] = ptr
	lay.Node[statecodec.NodeC] = window
	lay.Node[statecodec.NodeD] = window
	lay.Node[statecodec.NodeMark] = statecodec.MakeSlot(0, 1)
	lay.Node[statecodec.NodeLock] = statecodec.MakeSlot(0, int32(threads))

	maxPC := 0
	argLo, argHi := int32(0), int32(0)
	for mi := range p.Methods {
		m := &p.Methods[mi]
		if len(m.Body) > maxPC {
			maxPC = len(m.Body)
		}
		for _, a := range m.Args {
			if a < argLo {
				argLo = a
			}
			if a > argHi {
				argHi = a
			}
		}
	}
	if maxPC == 0 {
		maxPC = 1
	}
	nm := len(p.Methods)
	if nm == 0 {
		nm = 1
	}
	lay.Thread[statecodec.ThreadStatus] = statecodec.MakeSlot(0, 2)
	lay.Thread[statecodec.ThreadMethod] = statecodec.MakeSlot(0, int32(nm-1))
	lay.Thread[statecodec.ThreadArg] = statecodec.MakeSlot(argLo, argHi)
	lay.Thread[statecodec.ThreadPC] = statecodec.MakeSlot(0, int32(maxPC-1))
	lay.Thread[statecodec.ThreadRet] = window
	lay.Thread[statecodec.ThreadOps] = statecodec.MakeSlot(0, int32(ops))
	for li := range lay.Locals {
		if p.localKind(li) == KPtr {
			lay.Locals[li] = ptr
		} else {
			lay.Locals[li] = window
		}
	}
	return lay
}

// layoutFits sanity-checks that lay matches the shape of p under the
// given instance bounds; a mis-shaped layout (built for a different
// program or instance) is discarded rather than risking a mis-encode.
func layoutFits(p *Program, lay *statecodec.Layout, threads, ops int) bool {
	return lay != nil &&
		len(lay.Globals) == len(p.Globals.Kinds) &&
		len(lay.Locals) == p.NLocals &&
		lay.Watermark.Contains(int32(p.HeapCap)) &&
		lay.Node[statecodec.NodeLock].Contains(int32(threads)) &&
		lay.Thread[statecodec.ThreadOps].Contains(int32(ops))
}

// codec encodes canonical states to intern keys and back: a fixed-width
// bit-packed encoder over a statecodec.Layout. It is injective on
// canonical states (all slots before the heap watermark are fixed-width,
// so equal encodings agree on the watermark, hence on every field
// boundary) and allocation-free once buffers are warm. The layout only
// changes the intern keys, never the produced LTS. A value outside its
// slot makes encode panic, which the explorer reports as a
// *ModelFaultError.
//
// Every thread's registers occupy the same fixed number of bits, after
// the globals, the watermark and the live cells, so thread t's range
// starts at bit prefix + hw·nodeBits + t·threadBits; patchThread
// rewrites that range alone.
type codec struct {
	lay                          *statecodec.Layout
	prefix, nodeBits, threadBits int
}

// newCodec resolves the codec for one exploration of p: Options.Layout
// when it fits the program and instance, the structural layout otherwise.
func newCodec(p *Program, opt Options) codec {
	lay := opt.Layout
	if !layoutFits(p, lay, opt.Threads, opt.Ops) {
		lay = StructuralLayout(p, opt.Threads, opt.Ops)
	}
	c := codec{lay: lay, prefix: int(lay.Watermark.Bits)}
	for _, s := range lay.Globals {
		c.prefix += int(s.Bits)
	}
	for _, s := range lay.Node {
		c.nodeBits += int(s.Bits)
	}
	for _, s := range lay.Thread {
		c.threadBits += int(s.Bits)
	}
	for _, s := range lay.Locals {
		c.threadBits += int(s.Bits)
	}
	return c
}

// keyBuf returns an empty key buffer, on cache lines of its own, long
// enough for every key of p at the given thread count: the globals and
// watermark, a full heap and every thread.
func (c codec) keyBuf(p *Program, threads int) []byte {
	bits := c.prefix + p.HeapCap*c.nodeBits + threads*c.threadBits
	return isolated[byte](0, (bits+7)/8)
}

// encode serializes a state whose heap is canonical and whose watermark
// is set: globals, the heap watermark, the cells up to it (a dense
// prefix), then every thread.
func (c codec) encode(buf []byte, st *state) []byte {
	lay := c.lay
	var w statecodec.BitWriter
	w.Reset(buf)
	g := st.g
	for i, v := range g.Vars {
		w.Put(lay.Globals[i], v)
	}
	hw := int(st.hw)
	w.Put(lay.Watermark, int32(hw))
	for i := 1; i <= hw; i++ {
		n := &g.Heap[i]
		w.Put(lay.Node[statecodec.NodeKind], n.Kind)
		w.Put(lay.Node[statecodec.NodeVal], n.Val)
		w.Put(lay.Node[statecodec.NodeKey], n.Key)
		w.Put(lay.Node[statecodec.NodeNext], n.Next)
		w.Put(lay.Node[statecodec.NodeA], n.A)
		w.Put(lay.Node[statecodec.NodeB], n.B)
		w.Put(lay.Node[statecodec.NodeC], n.C)
		w.Put(lay.Node[statecodec.NodeD], n.D)
		m := int32(0)
		if n.Mark {
			m = 1
		}
		w.Put(lay.Node[statecodec.NodeMark], m)
		w.Put(lay.Node[statecodec.NodeLock], n.Lock)
	}
	for ti := range st.th {
		c.putThread(&w, &st.th[ti])
	}
	return w.Finish()
}

// putThread writes one thread's registers and locals.
func (c codec) putThread(w *statecodec.BitWriter, th *thread) {
	lay := c.lay
	w.Put(lay.Thread[statecodec.ThreadStatus], th.status)
	w.Put(lay.Thread[statecodec.ThreadMethod], th.method)
	w.Put(lay.Thread[statecodec.ThreadArg], th.arg)
	w.Put(lay.Thread[statecodec.ThreadPC], th.pc)
	w.Put(lay.Thread[statecodec.ThreadRet], th.ret)
	w.Put(lay.Thread[statecodec.ThreadOps], th.ops)
	for li, l := range th.locals {
		w.Put(lay.Locals[li], l)
	}
}

// patchThread writes into buf the key of st, which must differ from the
// state encoded by pred in thread t's registers and locals only: a copy
// of pred with thread t's bit range re-encoded. Every slot of the range
// keeps its range check.
func (c codec) patchThread(buf, pred []byte, st *state, t int) []byte {
	buf = append(buf[:0], pred...)
	var w statecodec.BitWriter
	w.ResetAt(buf, c.prefix+int(st.hw)*c.nodeBits+t*c.threadBits)
	c.putThread(&w, &st.th[t])
	return w.FinishAt(buf)
}

// decode reconstructs a state into st, which must be shaped for the
// program.
func (c codec) decode(buf []byte, st *state) {
	lay := c.lay
	var r statecodec.BitReader
	r.Reset(buf)
	g := st.g
	for vi := range g.Vars {
		g.Vars[vi] = r.Get(lay.Globals[vi])
	}
	hw := int(r.Get(lay.Watermark))
	st.hw = int32(hw)
	for hi := 1; hi <= hw; hi++ {
		n := &g.Heap[hi]
		n.Kind = r.Get(lay.Node[statecodec.NodeKind])
		n.Val = r.Get(lay.Node[statecodec.NodeVal])
		n.Key = r.Get(lay.Node[statecodec.NodeKey])
		n.Next = r.Get(lay.Node[statecodec.NodeNext])
		n.A = r.Get(lay.Node[statecodec.NodeA])
		n.B = r.Get(lay.Node[statecodec.NodeB])
		n.C = r.Get(lay.Node[statecodec.NodeC])
		n.D = r.Get(lay.Node[statecodec.NodeD])
		n.Mark = r.Get(lay.Node[statecodec.NodeMark]) != 0
		n.Lock = r.Get(lay.Node[statecodec.NodeLock])
	}
	for hi := hw + 1; hi < len(g.Heap); hi++ {
		g.Heap[hi] = Node{}
	}
	for ti := range st.th {
		th := &st.th[ti]
		th.status = r.Get(lay.Thread[statecodec.ThreadStatus])
		th.method = r.Get(lay.Thread[statecodec.ThreadMethod])
		th.arg = r.Get(lay.Thread[statecodec.ThreadArg])
		th.pc = r.Get(lay.Thread[statecodec.ThreadPC])
		th.ret = r.Get(lay.Thread[statecodec.ThreadRet])
		th.ops = r.Get(lay.Thread[statecodec.ThreadOps])
		for li := range th.locals {
			th.locals[li] = r.Get(lay.Locals[li])
		}
	}
}
