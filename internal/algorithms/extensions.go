package algorithms

import (
	"repro/internal/machine"
)

// This file packages extension algorithms beyond the paper's Table II:
// classic companions of the benchmarks that exercise additional corners
// of the framework (Harris's original list, version-tagged ABA
// protection). All are marked Extension and do not appear in the Table
// II exhibit; the two-lock queue and coarse list extensions compile from
// examples/bbvl (models.go).

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
