package algorithms

import (
	"repro/internal/machine"
)

// This file packages extension algorithms beyond the paper's Table II:
// classic companions of the benchmarks that exercise additional corners
// of the framework (blocking queues, coarse locking, Harris's original
// list, version-tagged ABA protection). All are marked Extension and do
// not appear in the Table II exhibit.

// TwoLockQueue builds the two-lock blocking queue from the same paper as
// the MS lock-free queue [25]: one lock serializes enqueuers, another
// serializes dequeuers, and the sentinel node lets them run concurrently.
// It is linearizable and deadlock-free but, being lock-based, not
// lock-free.
func TwoLockQueue(cfg Config) *machine.Program {
	const (
		gHead  = 0
		gTail  = 1
		gHLock = 2
		gTLock = 3
	)
	const (
		locN = 0 // new node (enq) / head snapshot (deq)
		locH = 1 // new head (deq)
	)
	return &machine.Program{
		Name: "two-lock-queue",
		Globals: machine.Schema{
			Names: []string{"Head", "Tail", "HLock", "TLock"},
			Kinds: []machine.VarKind{machine.KPtr, machine.KPtr, machine.KVal, machine.KVal},
		},
		HeapCap:    cfg.TotalOps() + 2,
		NLocals:    2,
		LocalKinds: []machine.VarKind{machine.KPtr, machine.KPtr},
		Init: func(g *machine.Global) {
			g.Heap[1] = machine.Node{Kind: kindNode} // sentinel
			g.Vars[gHead] = 1
			g.Vars[gTail] = 1
		},
		Methods: []machine.Method{
			{
				Name: "Enq",
				Args: cfg.Values(),
				Body: []machine.Stmt{
					{Label: "E1", Exec: func(c *machine.Ctx) {
						n := c.Alloc(kindNode)
						c.Node(n).Val = c.Arg
						c.L[locN] = n
						c.Goto(1)
					}},
					{Label: "E2", Exec: func(c *machine.Ctx) { // lock(TLock)
						if c.CASV(gTLock, 0, c.Self()) {
							c.Goto(2)
						}
					}},
					{Label: "E3", Exec: func(c *machine.Ctx) {
						c.Node(c.V(gTail)).Next = c.L[locN]
						c.Goto(3)
					}},
					{Label: "E4", Exec: func(c *machine.Ctx) {
						c.SetV(gTail, c.L[locN])
						c.Goto(4)
					}},
					{Label: "E5", Exec: func(c *machine.Ctx) {
						c.SetV(gTLock, 0)
						c.Return(machine.ValOK)
					}},
				},
			},
			{
				Name: "Deq",
				Body: []machine.Stmt{
					{Label: "D1", Exec: func(c *machine.Ctx) { // lock(HLock)
						if c.CASV(gHLock, 0, c.Self()) {
							c.Goto(1)
						}
					}},
					{Label: "D2", Exec: func(c *machine.Ctx) {
						c.L[locN] = c.V(gHead)
						c.Goto(2)
					}},
					{Label: "D3", Exec: func(c *machine.Ctx) {
						c.L[locH] = c.Node(c.L[locN]).Next
						if c.L[locH] == 0 {
							c.Goto(4) // empty: unlock and report
						} else {
							c.Goto(3)
						}
					}},
					{Label: "D4", Exec: func(c *machine.Ctx) {
						// The new head's value is read under the lock; the
						// old sentinel becomes garbage.
						c.SetV(gHead, c.L[locH])
						c.Goto(5)
					}},
					{Label: "D5", Exec: func(c *machine.Ctx) {
						c.SetV(gHLock, 0)
						c.Return(machine.ValEmpty)
					}},
					{Label: "D6", Exec: func(c *machine.Ctx) {
						v := c.Node(c.L[locH]).Val
						c.SetV(gHLock, 0)
						c.Return(v)
					}},
				},
			},
		},
	}
}

// CoarseList builds the textbook coarse-grained synchronized list [17]:
// one global lock serializes every operation; the traversal happens
// under the lock, one step per shared read.
func CoarseList(cfg Config) *machine.Program {
	const (
		gHead = 0
		gLock = 1
	)
	keys := cfg.Values()
	// Traversal under the lock: pred/curr end with curr.key >= k.
	walk := func(after int) []machine.Stmt {
		return []machine.Stmt{
			{Label: "W1", Exec: func(c *machine.Ctx) { // lock
				if c.CASV(gLock, 0, c.Self()) {
					c.Goto(1)
				}
			}},
			{Label: "W2", Exec: func(c *machine.Ctx) {
				c.L[lLocPred] = c.V(gHead)
				c.Goto(2)
			}},
			{Label: "W3", Exec: func(c *machine.Ctx) {
				c.L[lLocCurr] = c.Node(c.L[lLocPred]).Next
				c.Goto(3)
			}},
			{Label: "W4", Exec: func(c *machine.Ctx) {
				if c.Node(c.L[lLocCurr]).Key < c.Arg {
					c.L[lLocPred] = c.L[lLocCurr]
					c.Goto(2)
					return
				}
				c.Goto(after)
			}},
		}
	}
	finish := func(action func(c *machine.Ctx)) []machine.Stmt {
		return []machine.Stmt{
			{Label: "F1", Exec: func(c *machine.Ctx) {
				action(c)
				c.Goto(5)
			}},
			{Label: "F2", Exec: func(c *machine.Ctx) {
				c.SetV(gLock, 0)
				c.Return(c.L[lLocRes])
			}},
		}
	}
	addBody := concat(walk(4), finish(func(c *machine.Ctx) {
		if c.Node(c.L[lLocCurr]).Key == c.Arg {
			c.L[lLocRes] = machine.ValFalse
			return
		}
		n := c.Alloc(kindNode)
		c.Node(n).Key = c.Arg
		c.Node(n).Next = c.L[lLocCurr]
		c.Node(c.L[lLocPred]).Next = n
		c.L[lLocRes] = machine.ValTrue
	}))
	removeBody := concat(walk(4), finish(func(c *machine.Ctx) {
		if c.Node(c.L[lLocCurr]).Key == c.Arg {
			c.Node(c.L[lLocPred]).Next = c.Node(c.L[lLocCurr]).Next
			c.L[lLocRes] = machine.ValTrue
			return
		}
		c.L[lLocRes] = machine.ValFalse
	}))
	containsBody := concat(walk(4), finish(func(c *machine.Ctx) {
		if c.Node(c.L[lLocCurr]).Key == c.Arg {
			c.L[lLocRes] = machine.ValTrue
			return
		}
		c.L[lLocRes] = machine.ValFalse
	}))
	return &machine.Program{
		Name: "coarse-list",
		Globals: machine.Schema{
			Names: []string{"Head", "Lock"},
			Kinds: []machine.VarKind{machine.KPtr, machine.KVal},
		},
		HeapCap:    cfg.TotalOps() + 3,
		NLocals:    len(lockListLocals),
		LocalKinds: lockListLocals,
		Init:       lockListInit(gHead),
		Methods: []machine.Method{
			{Name: "Add", Args: keys, Body: addBody},
			{Name: "Remove", Args: keys, Body: removeBody},
			{Name: "Contains", Args: keys, Body: containsBody},
		},
		FormatRet: lockBoolRet,
	}
}

// Local register layout for the Harris list.
const (
	haLeft     = 0 // left: last unmarked node with key < k
	haLeftNext = 1 // left.next as read at left's visit
	haCur      = 2 // traversal cursor
	haRight    = 3 // first unmarked node with key >= k (0 = end)
	haTmp      = 4 // right.next snapshot (remove) / new node (add)
)

var harrisLocals = []machine.VarKind{
	machine.KPtr, machine.KPtr, machine.KPtr, machine.KPtr, machine.KPtr,
}

// harrisSearch emits Harris's search as statements starting at pc base:
// walk the list recording the last unmarked node with key < k (left, with
// the successor value read there) and the first unmarked node with
// key >= k (right, 0 at end of list); if marked nodes lie between them,
// snip the whole segment with one CAS on left.(next,mark) and restart on
// failure. Exits to pc found.
func harrisSearch(gHead int, base, found int) []machine.Stmt {
	return []machine.Stmt{
		{Label: "S1", Exec: func(c *machine.Ctx) {
			h := c.V(gHead)
			c.L[haLeft] = h
			c.L[haCur] = h
			c.Goto(base + 1)
		}},
		{Label: "S2", Exec: func(c *machine.Ctx) { // visit cursor node
			u := c.L[haCur]
			n := c.Node(u)
			next, marked := n.Next, n.Mark
			if !marked {
				if u == c.V(gHead) || n.Key < c.Arg {
					// Note: head is never marked and has no key.
					c.L[haLeft] = u
					c.L[haLeftNext] = next
				} else if n.Key >= c.Arg {
					c.L[haRight] = u
					c.Goto(base + 2)
					return
				}
			}
			if next == 0 {
				c.L[haRight] = 0
				c.Goto(base + 2)
				return
			}
			c.L[haCur] = next
			c.Goto(base + 1)
		}},
		{Label: "S3", Exec: func(c *machine.Ctx) { // snip marked segment
			if c.L[haLeftNext] == c.L[haRight] {
				c.Goto(found) // adjacent, nothing to snip
				return
			}
			ln := c.Node(c.L[haLeft])
			if ln.Next == c.L[haLeftNext] && !ln.Mark {
				ln.Next = c.L[haRight] // one CAS removes the whole segment
				c.Goto(found)
			} else {
				c.Goto(base) // contention: search again
			}
		}},
	}
}

// HarrisList builds Harris's original lock-free linked list [15-style;
// DISC 2001]: logical deletion via a mark on the node's next pointer and
// physical deletion of whole marked segments inside search. Compared to
// the Harris–Michael variant (hm-list), the search unlinks runs of
// marked nodes with a single CAS instead of one at a time.
func HarrisList(cfg Config) *machine.Program {
	const gHead = 0
	keys := cfg.Values()
	rightIsKey := func(c *machine.Ctx) bool {
		return c.L[haRight] != 0 && c.Node(c.L[haRight]).Key == c.Arg
	}
	addBody := append(harrisSearch(gHead, 0, 3), []machine.Stmt{
		{Label: "A1", Exec: func(c *machine.Ctx) {
			if rightIsKey(c) {
				c.Return(machine.ValFalse)
				return
			}
			n := c.Alloc(kindNode)
			c.Node(n).Key = c.Arg
			c.Node(n).Next = c.L[haRight]
			c.L[haTmp] = n
			c.Goto(4)
		}},
		{Label: "A2", Exec: func(c *machine.Ctx) {
			// CAS(left.(next,mark), (right,false), (n,false))
			ln := c.Node(c.L[haLeft])
			if ln.Next == c.L[haRight] && !ln.Mark {
				ln.Next = c.L[haTmp]
				c.Return(machine.ValTrue)
				return
			}
			c.Free(c.L[haTmp])
			c.L[haTmp] = 0
			c.Goto(0)
		}},
	}...)
	removeBody := append(harrisSearch(gHead, 0, 3), []machine.Stmt{
		{Label: "R1", Exec: func(c *machine.Ctx) {
			if !rightIsKey(c) {
				c.Return(machine.ValFalse)
				return
			}
			c.Goto(4)
		}},
		{Label: "R2", Exec: func(c *machine.Ctx) { // read right.(next,mark)
			n := c.Node(c.L[haRight])
			if n.Mark {
				c.Goto(0) // someone else is deleting it: search again
				return
			}
			c.L[haTmp] = n.Next
			c.Goto(5)
		}},
		{Label: "R3", Exec: func(c *machine.Ctx) { // logical delete (LP)
			n := c.Node(c.L[haRight])
			if n.Next == c.L[haTmp] && !n.Mark {
				n.Mark = true
				c.Goto(6)
			} else {
				c.Goto(0)
			}
		}},
		{Label: "R4", Exec: func(c *machine.Ctx) { // best-effort physical snip
			ln := c.Node(c.L[haLeft])
			if ln.Next == c.L[haRight] && !ln.Mark {
				ln.Next = c.L[haTmp]
			}
			c.Return(machine.ValTrue)
		}},
	}...)
	return &machine.Program{
		Name:       "harris-list",
		Globals:    machine.Schema{Names: []string{"Head"}, Kinds: []machine.VarKind{machine.KPtr}},
		HeapCap:    cfg.TotalOps() + cfg.Threads + 2,
		NLocals:    len(harrisLocals),
		LocalKinds: harrisLocals,
		Init: func(g *machine.Global) {
			g.Heap[1] = machine.Node{Kind: kindNode, Key: -1} // -inf sentinel
			g.Vars[0] = 1
		},
		Methods: []machine.Method{
			{Name: "Add", Args: keys, Body: addBody},
			{Name: "Remove", Args: keys, Body: removeBody},
		},
		FormatRet: func(m *machine.Method, ret int32) string { return machine.FormatBool(ret) },
	}
}

// TreiberVersioned builds the Treiber stack with a version-tagged top
// pointer and immediate explicit reclamation: the classic alternative to
// hazard pointers for ABA protection. Every successful CAS on (Top,
// version) increments the version, so a stale snapshot can never pass the
// CAS against a recycled cell — unlike treiber-unsafe-free, this variant
// stays linearizable while reusing memory.
func TreiberVersioned(cfg Config) *machine.Program {
	const (
		gTop = 0
		gVer = 1
	)
	const (
		locT = 0 // Top snapshot
		locN = 1 // new node / next
		locV = 2 // version snapshot
	)
	return &machine.Program{
		Name: "treiber-versioned",
		Globals: machine.Schema{
			Names: []string{"Top", "Ver"},
			Kinds: []machine.VarKind{machine.KPtr, machine.KVal},
		},
		HeapCap:    cfg.TotalOps() + 1,
		NLocals:    3,
		LocalKinds: []machine.VarKind{machine.KPtr, machine.KPtr, machine.KVal},
		Methods: []machine.Method{
			{
				Name: "Push",
				Args: cfg.Values(),
				Body: []machine.Stmt{
					{Label: "V1", Exec: func(c *machine.Ctx) {
						n := c.Alloc(kindNode)
						c.Node(n).Val = c.Arg
						c.L[locN] = n
						c.Goto(1)
					}},
					{Label: "V2", Exec: func(c *machine.Ctx) {
						// Double-width read of the tagged pointer.
						c.L[locT] = c.V(gTop)
						c.L[locV] = c.V(gVer)
						c.Node(c.L[locN]).Next = c.L[locT]
						c.Goto(2)
					}},
					{Label: "V3", Exec: func(c *machine.Ctx) {
						if c.V(gTop) == c.L[locT] && c.V(gVer) == c.L[locV] {
							c.SetV(gTop, c.L[locN])
							c.SetV(gVer, c.L[locV]+1)
							c.Return(machine.ValOK)
						} else {
							c.Goto(1)
						}
					}},
				},
			},
			{
				Name: "Pop",
				Body: []machine.Stmt{
					{Label: "V4", Exec: func(c *machine.Ctx) {
						t := c.V(gTop)
						if t == 0 {
							c.Return(machine.ValEmpty)
							return
						}
						c.L[locT] = t
						c.L[locV] = c.V(gVer)
						c.Goto(1)
					}},
					{Label: "V5", Exec: func(c *machine.Ctx) {
						c.L[locN] = c.Node(c.L[locT]).Next
						c.Goto(2)
					}},
					{Label: "V6", Exec: func(c *machine.Ctx) {
						if c.V(gTop) == c.L[locT] && c.V(gVer) == c.L[locV] {
							c.SetV(gTop, c.L[locN])
							c.SetV(gVer, c.L[locV]+1)
							v := c.Node(c.L[locT]).Val
							c.Free(c.L[locT]) // safe: the version CAS cannot ABA
							c.Return(v)
						} else {
							c.Goto(0)
						}
					}},
				},
			},
		},
	}
}

func twoLockQueueAlg() *Algorithm {
	return &Algorithm{
		ID:                 "two-lock-queue",
		Display:            "MS two-lock queue",
		Ref:                "[25]",
		LockBased:          true,
		Extension:          true,
		ExpectLinearizable: true,
		Build:              TwoLockQueue,
		Spec:               queueSpec,
	}
}

func coarseListAlg() *Algorithm {
	return &Algorithm{
		ID:                 "coarse-list",
		Display:            "Coarse-grained syn. list",
		Ref:                "[17]",
		LockBased:          true,
		Extension:          true,
		ExpectLinearizable: true,
		Build:              CoarseList,
		Spec:               lockSetSpec,
	}
}

func harrisListAlg() *Algorithm {
	return &Algorithm{
		ID:                 "harris-list",
		Display:            "Harris lock-free list",
		Ref:                "(extension)",
		NonFixedLPs:        true,
		Extension:          true,
		ExpectLinearizable: true,
		ExpectLockFree:     true,
		Build:              HarrisList,
		Spec:               setSpec,
	}
}

func treiberVersionedAlg() *Algorithm {
	return &Algorithm{
		ID:                 "treiber-versioned",
		Display:            "Treiber stack + versioned CAS",
		Ref:                "(extension)",
		Extension:          true,
		ExpectLinearizable: true,
		ExpectLockFree:     true,
		Build:              TreiberVersioned,
		Spec:               stackSpec,
	}
}
