package machine

import (
	"testing"
	"unsafe"

	"repro/internal/statecodec"
)

// stackProgram is a Treiber stack: Push allocates a cell and swings the
// head to it, Pop unlinks and frees the top cell. It exercises every
// scratch buffer a worker writes: globals, locals, heap, canonicalizer
// and both key paths.
func stackProgram() *Program {
	return &Program{
		Name:       "stack",
		Globals:    Schema{Names: []string{"top"}, Kinds: []VarKind{KPtr}},
		HeapCap:    5,
		NLocals:    2,
		LocalKinds: []VarKind{KPtr, KPtr},
		Methods: []Method{
			{Name: "Push", Args: []int32{1}, Body: []Stmt{
				{Label: "alloc", Exec: func(c *Ctx) {
					n := c.Alloc(1)
					c.Node(n).Val = c.Arg
					c.L[0] = n
					c.Goto(1)
				}},
				{Label: "read", Exec: func(c *Ctx) { c.L[1] = c.V(0); c.Goto(2) }},
				{Label: "cas", Exec: func(c *Ctx) {
					c.Node(c.L[0]).Next = c.L[1]
					if c.CASV(0, c.L[1], c.L[0]) {
						c.Return(ValOK)
						return
					}
					c.Goto(1)
				}},
			}},
			{Name: "Pop", Body: []Stmt{
				{Label: "read", Exec: func(c *Ctx) {
					c.L[0] = c.V(0)
					if c.L[0] == 0 {
						c.Return(0)
						return
					}
					c.Goto(1)
				}},
				{Label: "cas", Exec: func(c *Ctx) {
					top := c.L[0]
					if !c.CASV(0, top, c.Node(top).Next) {
						c.Goto(0)
						return
					}
					v := c.Node(top).Val
					c.Free(top)
					c.Return(v)
				}},
			}},
		},
	}
}

// keySink records a copy of every successor key a worker emits.
type keySink struct {
	w    *pworker
	keys [][]byte
}

func (k *keySink) emit(x *expander, tr symTrans) {
	k.w.emit(x, tr)
	k.keys = append(k.keys, append([]byte(nil), k.w.buf...))
}

// hotLines returns the cache lines (address / cacheLine) of every object
// a parallel worker writes per step, taking each buffer at its capacity.
func hotLines(w *pworker) map[uintptr]bool {
	lines := map[uintptr]bool{}
	add := func(p unsafe.Pointer, size uintptr) {
		if size == 0 {
			return
		}
		a := uintptr(p)
		for l := a / cacheLine; l <= (a+size-1)/cacheLine; l++ {
			lines[l] = true
		}
	}
	addSlice := func(p unsafe.Pointer, c int, elem uintptr) { add(p, uintptr(c)*elem) }
	add(unsafe.Pointer(w), unsafe.Sizeof(*w))
	for _, st := range []*state{w.cur, w.x.work, w.x.succ, w.x.chain} {
		add(unsafe.Pointer(st), unsafe.Sizeof(*st))
		add(unsafe.Pointer(st.g), unsafe.Sizeof(*st.g))
		addSlice(unsafe.Pointer(unsafe.SliceData(st.g.Vars)), cap(st.g.Vars), 4)
		addSlice(unsafe.Pointer(unsafe.SliceData(st.g.Heap)), cap(st.g.Heap), unsafe.Sizeof(Node{}))
		addSlice(unsafe.Pointer(unsafe.SliceData(st.th)), cap(st.th), unsafe.Sizeof(thread{}))
		for _, th := range st.th {
			addSlice(unsafe.Pointer(unsafe.SliceData(th.locals)), cap(th.locals), 4)
		}
	}
	c := w.x.canon
	add(unsafe.Pointer(c), unsafe.Sizeof(*c))
	addSlice(unsafe.Pointer(unsafe.SliceData(c.old2new)), cap(c.old2new), 4)
	addSlice(unsafe.Pointer(unsafe.SliceData(c.order)), cap(c.order), 4)
	addSlice(unsafe.Pointer(unsafe.SliceData(c.newHeap)), cap(c.newHeap), unsafe.Sizeof(Node{}))
	addSlice(unsafe.Pointer(unsafe.SliceData(w.x.key)), cap(w.x.key), 1)
	addSlice(unsafe.Pointer(unsafe.SliceData(w.buf)), cap(w.buf), 1)
	addSlice(unsafe.Pointer(unsafe.SliceData(w.x.ctx.outs)), cap(w.x.ctx.outs), unsafe.Sizeof(outcome{}))
	return lines
}

// TestWorkerScratchIsolated checks by address arithmetic that no cache
// line holds the per-step scratch of two parallel explorer workers, once
// the workers have explored a stack's whole state space between them
// (so every buffer has reached the size it runs at).
func TestWorkerScratchIsolated(t *testing.T) {
	p := stackProgram()
	opt := Options{Threads: 2, Ops: 2}
	cdc := newCodec(p, opt)
	store := statecodec.NewStore(statecodec.Config{}, nil)
	defer store.Close()
	const workers = 4
	ws := make([]*pworker, workers)
	for i := range ws {
		ws[i] = newPWorker(p, opt, cdc, store)
	}
	key, err := initialKey(p, opt, cdc)
	if err != nil {
		t.Fatal(err)
	}
	queue, seen := [][]byte{key}, map[string]bool{string(key): true}
	for i := 0; i < len(queue); i++ {
		w := ws[i%workers]
		sink := &keySink{w: w}
		w.cdc.decode(queue[i], w.cur)
		if _, err := w.x.expand(w.cur, queue[i], sink); err != nil {
			t.Fatal(err)
		}
		for _, k := range sink.keys {
			if !seen[string(k)] {
				seen[string(k)] = true
				queue = append(queue, k)
			}
		}
	}
	if len(queue) < 100 {
		t.Fatalf("only %d states explored", len(queue))
	}
	owner := map[uintptr]int{}
	for i, w := range ws {
		for l := range hotLines(w) {
			if o, ok := owner[l]; ok && o != i {
				t.Fatalf("cache line %#x holds scratch of workers %d and %d", l*cacheLine, o, i)
			}
			owner[l] = i
		}
	}
}
