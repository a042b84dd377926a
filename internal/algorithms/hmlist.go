package algorithms

import (
	"repro/internal/machine"
	"repro/internal/spec"
)

// Local register layout for the HM list.
const (
	hLocPred = 0 // pred
	hLocCurr = 1 // curr
	hLocSucc = 2 // succ (curr.next snapshot)
	hLocMark = 3 // curr's mark snapshot
	hLocNew  = 4 // newly allocated node (add)
)

var hmLocalKinds = []machine.VarKind{
	machine.KPtr, machine.KPtr, machine.KPtr, machine.KVal, machine.KPtr,
}

// hmFind emits the Harris–Michael find loop as statements starting at
// pc base; on exit it jumps to pc found with pred in L0, curr in L1
// (curr == 0 at end of list, otherwise curr.key >= k and curr was
// unmarked when read) and curr's next snapshot in L2. Marked nodes
// encountered on the way are physically unlinked with a CAS on
// (pred.next, pred.mark); a failed unlink restarts the traversal.
//
// The mark bit of node n is represented by n.Mark and logically tags the
// (n.next, mark) pair, exactly like the AtomicMarkableReference of the
// book's Java code: CAS operations on the pair compare both.
func hmFind(gHead int, base, found int) []machine.Stmt {
	return []machine.Stmt{
		{Label: "F1", Exec: func(c *machine.Ctx) { // pred := Head
			c.L[hLocPred] = c.V(gHead)
			c.Goto(base + 1)
		}},
		{Label: "F2", Exec: func(c *machine.Ctx) { // curr := pred.next
			c.L[hLocCurr] = c.Node(c.L[hLocPred]).Next
			c.Goto(base + 2)
		}},
		{Label: "F3", Exec: func(c *machine.Ctx) { // read (curr.next, mark)
			if c.L[hLocCurr] == 0 {
				c.Goto(found)
				return
			}
			n := c.Node(c.L[hLocCurr])
			c.L[hLocSucc] = n.Next
			if n.Mark {
				c.L[hLocMark] = 1
			} else {
				c.L[hLocMark] = 0
			}
			c.Goto(base + 3)
		}},
		{Label: "F4", Exec: func(c *machine.Ctx) {
			if c.L[hLocMark] == 1 {
				// curr is logically deleted: snip it out with
				// CAS(pred.(next,mark), (curr,false), (succ,false)).
				pn := c.Node(c.L[hLocPred])
				if pn.Next == c.L[hLocCurr] && !pn.Mark {
					pn.Next = c.L[hLocSucc]
					c.L[hLocCurr] = c.L[hLocSucc]
					c.Goto(base + 2)
				} else {
					c.Goto(base) // restart traversal
				}
				return
			}
			// Keys are immutable once linked, so reading curr.key here
			// adds no shared-access step.
			if c.Node(c.L[hLocCurr]).Key >= c.Arg {
				c.Goto(found)
				return
			}
			c.L[hLocPred] = c.L[hLocCurr]
			c.L[hLocCurr] = c.L[hLocSucc]
			c.Goto(base + 2)
		}},
	}
}

// hmCurrIsKey reports whether find ended on a node with the searched key.
func hmCurrIsKey(c *machine.Ctx) bool {
	return c.L[hLocCurr] != 0 && c.Node(c.L[hLocCurr]).Key == c.Arg
}

// HMList builds the Harris–Michael lock-free list-based set [17] over
// the key universe of cfg. When buggy is true, remove's logical-deletion
// step is the first printing's attemptMark(succ, true), which sets the
// mark whenever the reference still matches — ignoring the current mark
// bit — so two threads can remove the same key and both return true (the
// known linearizability bug confirmed in Section VI.F; fixed in the
// book's errata and in the revised variant here, which uses a full
// compareAndSet on the (reference, mark) pair).
func HMList(name string, buggy bool, cfg Config) *machine.Program {
	const gHead = 0
	keys := cfg.Values()
	addBody := append(hmFind(gHead, 0, 4), []machine.Stmt{
		{Label: "A1", Exec: func(c *machine.Ctx) {
			if hmCurrIsKey(c) {
				c.Return(machine.ValFalse)
				return
			}
			n := c.Alloc(kindNode)
			c.Node(n).Key = c.Arg
			c.Node(n).Next = c.L[hLocCurr]
			c.L[hLocNew] = n
			c.Goto(5)
		}},
		{Label: "A2", Exec: func(c *machine.Ctx) {
			// CAS(pred.(next,mark), (curr,false), (node,false))
			pn := c.Node(c.L[hLocPred])
			if pn.Next == c.L[hLocCurr] && !pn.Mark {
				pn.Next = c.L[hLocNew]
				c.Return(machine.ValTrue)
				return
			}
			c.Free(c.L[hLocNew])
			c.L[hLocNew] = 0
			c.Goto(0) // restart find
		}},
	}...)
	removeBody := append(hmFind(gHead, 0, 4), []machine.Stmt{
		{Label: "R1", Exec: func(c *machine.Ctx) {
			if !hmCurrIsKey(c) {
				c.Return(machine.ValFalse)
				return
			}
			c.Goto(5)
		}},
		{Label: "R2", Exec: func(c *machine.Ctx) {
			n := c.Node(c.L[hLocCurr])
			if buggy {
				// attemptMark(succ, true): compares only the reference.
				if n.Next == c.L[hLocSucc] {
					n.Mark = true
					c.Goto(6)
				} else {
					c.Goto(0)
				}
				return
			}
			// compareAndSet((succ,false), (succ,true)): full pair.
			if n.Next == c.L[hLocSucc] && !n.Mark {
				n.Mark = true
				c.Goto(6)
			} else {
				c.Goto(0)
			}
		}},
		{Label: "R3", Exec: func(c *machine.Ctx) {
			// Attempt physical removal; failure is fine, another find
			// will snip the node.
			pn := c.Node(c.L[hLocPred])
			if pn.Next == c.L[hLocCurr] && !pn.Mark {
				pn.Next = c.L[hLocSucc]
			}
			c.Return(machine.ValTrue)
		}},
	}...)
	return &machine.Program{
		Name:       name,
		Globals:    machine.Schema{Names: []string{"Head"}, Kinds: []machine.VarKind{machine.KPtr}},
		HeapCap:    cfg.TotalOps() + cfg.Threads + 2,
		NLocals:    len(hmLocalKinds),
		LocalKinds: hmLocalKinds,
		Init: func(g *machine.Global) {
			g.Heap[1] = machine.Node{Kind: kindNode, Key: -1} // -inf sentinel
			g.Vars[gHead] = 1
		},
		Methods: []machine.Method{
			{Name: "Add", Args: keys, Body: addBody},
			{Name: "Remove", Args: keys, Body: removeBody},
		},
		FormatRet: func(m *machine.Method, ret int32) string { return machine.FormatBool(ret) },
	}
}

// setSpec builds the matching set specification (Add/Remove only, like
// the paper's HM list experiments).
func setSpec(cfg Config) *machine.Program {
	return spec.Set(cfg.Values(), spec.SetMethods{})
}

func hmListBuggyAlg() *Algorithm {
	return &Algorithm{
		ID:                 "hm-list-buggy",
		Display:            "HM lock-free list",
		Ref:                "[17]",
		NonFixedLPs:        true,
		ExpectLinearizable: false, // the known bug
		ExpectLockFree:     true,
		Build:              func(cfg Config) *machine.Program { return HMList("hm-list-buggy", true, cfg) },
		Spec:               setSpec,
	}
}

func hmListAlg() *Algorithm {
	return &Algorithm{
		ID:                 "hm-list",
		Display:            "HM lock-free list (revised)",
		Ref:                "[17]",
		NonFixedLPs:        true,
		ExpectLinearizable: true,
		ExpectLockFree:     true,
		Build:              func(cfg Config) *machine.Program { return HMList("hm-list", false, cfg) },
		Spec:               setSpec,
	}
}
