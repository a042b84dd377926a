package algorithms

import (
	"repro/internal/machine"
	"repro/internal/spec"
)

// List sentinels: head key is below, tail key above, every real key.
const (
	keyHead int32 = -1
	keyTail int32 = 7
)

// Local register layout for the lock-based lists.
const (
	lLocPred = 0
	lLocCurr = 1
	lLocScan = 2 // validation walker (optimistic)
	lLocRes  = 3 // boolean result
)

var lockListLocals = []machine.VarKind{machine.KPtr, machine.KPtr, machine.KPtr, machine.KVal}

// lockListInit places head and tail sentinels.
func lockListInit(gHead int) func(*machine.Global) {
	return func(g *machine.Global) {
		g.Heap[1] = machine.Node{Kind: kindNode, Key: keyHead, Next: 2}
		g.Heap[2] = machine.Node{Kind: kindNode, Key: keyTail}
		g.Vars[gHead] = 1
	}
}

// contains spec flag for the lock-based lists: they all expose Contains.
func lockSetSpec(cfg Config) *machine.Program {
	return spec.Set(cfg.Values(), spec.SetMethods{Contains: true})
}

// boolRet renders Add/Remove/Contains results.
func lockBoolRet(m *machine.Method, ret int32) string { return machine.FormatBool(ret) }

// lazySearch walks the list without locks: pred/curr end with
// curr.key >= k (tail sentinel guarantees termination).
func lazySearch(gHead, base, next int) []machine.Stmt {
	return []machine.Stmt{
		{Label: "T1", Exec: func(c *machine.Ctx) {
			c.L[lLocPred] = c.V(gHead)
			c.Goto(base + 1)
		}},
		{Label: "T2", Exec: func(c *machine.Ctx) {
			c.L[lLocCurr] = c.Node(c.L[lLocPred]).Next
			c.Goto(base + 2)
		}},
		{Label: "T3", Exec: func(c *machine.Ctx) {
			// curr.key is immutable; advancing re-reads curr.next, which
			// is the shared access of the next T2-equivalent step.
			if c.Node(c.L[lLocCurr]).Key < c.Arg {
				c.L[lLocPred] = c.L[lLocCurr]
				c.Goto(base + 1)
				return
			}
			c.Goto(next)
		}},
	}
}

// lockBoth acquires pred then curr (blocking, in list order — deadlock
// free) and then validates with check; on validation failure both locks
// are released and the operation restarts at pc restart.
func lockBoth(base, next, restart int, check func(c *machine.Ctx) bool) []machine.Stmt {
	return []machine.Stmt{
		{Label: "K1", Exec: func(c *machine.Ctx) {
			if c.TryLock(c.L[lLocPred]) {
				c.Goto(base + 1)
			}
		}},
		{Label: "K2", Exec: func(c *machine.Ctx) {
			if c.TryLock(c.L[lLocCurr]) {
				c.Goto(base + 2)
			}
		}},
		{Label: "K3", Exec: func(c *machine.Ctx) {
			// Both nodes are locked, so their fields are stable: the
			// multi-field validation is race-free in one step.
			if check(c) {
				c.Goto(next)
				return
			}
			c.Unlock(c.L[lLocCurr])
			c.Unlock(c.L[lLocPred])
			c.Goto(restart)
		}},
	}
}

// LazyList builds Heller et al.'s lazy list [16]: wait-free unlocked
// search, lock-and-validate via mark bits (no re-traversal), logical
// deletion before physical unlinking, and a wait-free Contains whose
// non-fixed linearization point is the mark read.
func LazyList(cfg Config) *machine.Program {
	const gHead = 0
	keys := cfg.Values()
	validate := func(c *machine.Ctx) bool {
		pred, curr := c.Node(c.L[lLocPred]), c.Node(c.L[lLocCurr])
		return !pred.Mark && !curr.Mark && pred.Next == c.L[lLocCurr]
	}
	addBody := concat(
		lazySearch(gHead, 0, 3),
		lockBoth(3, 6, 0, validate),
		[]machine.Stmt{
			{Label: "A1", Exec: func(c *machine.Ctx) {
				if c.Node(c.L[lLocCurr]).Key == c.Arg {
					c.L[lLocRes] = machine.ValFalse
				} else {
					n := c.Alloc(kindNode)
					c.Node(n).Key = c.Arg
					c.Node(n).Next = c.L[lLocCurr]
					c.Node(c.L[lLocPred]).Next = n
					c.L[lLocRes] = machine.ValTrue
				}
				c.Goto(7)
			}},
			{Label: "A2", Exec: func(c *machine.Ctx) {
				c.Unlock(c.L[lLocCurr])
				c.Goto(8)
			}},
			{Label: "A3", Exec: func(c *machine.Ctx) {
				c.Unlock(c.L[lLocPred])
				c.Return(c.L[lLocRes])
			}},
		},
	)
	removeBody := concat(
		lazySearch(gHead, 0, 3),
		lockBoth(3, 6, 0, validate),
		[]machine.Stmt{
			{Label: "R1", Exec: func(c *machine.Ctx) {
				if c.Node(c.L[lLocCurr]).Key == c.Arg {
					c.Node(c.L[lLocCurr]).Mark = true // logical delete (LP)
					c.L[lLocRes] = machine.ValTrue
					c.Goto(7)
				} else {
					c.L[lLocRes] = machine.ValFalse
					c.Goto(8)
				}
			}},
			{Label: "R2", Exec: func(c *machine.Ctx) {
				c.Node(c.L[lLocPred]).Next = c.Node(c.L[lLocCurr]).Next // physical unlink
				c.Goto(8)
			}},
			{Label: "R3", Exec: func(c *machine.Ctx) {
				c.Unlock(c.L[lLocCurr])
				c.Goto(9)
			}},
			{Label: "R4", Exec: func(c *machine.Ctx) {
				c.Unlock(c.L[lLocPred])
				c.Return(c.L[lLocRes])
			}},
		},
	)
	containsBody := []machine.Stmt{
		{Label: "C1", Exec: func(c *machine.Ctx) {
			c.L[lLocCurr] = c.V(gHead)
			c.Goto(1)
		}},
		{Label: "C2", Exec: func(c *machine.Ctx) {
			if c.Node(c.L[lLocCurr]).Key < c.Arg {
				c.L[lLocCurr] = c.Node(c.L[lLocCurr]).Next
				c.Goto(1)
				return
			}
			c.Goto(2)
		}},
		{Label: "C3", Exec: func(c *machine.Ctx) {
			n := c.Node(c.L[lLocCurr])
			if n.Key == c.Arg && !n.Mark {
				c.Return(machine.ValTrue)
			} else {
				c.Return(machine.ValFalse)
			}
		}},
	}
	return &machine.Program{
		Name:       "lazy-list",
		Globals:    machine.Schema{Names: []string{"Head"}, Kinds: []machine.VarKind{machine.KPtr}},
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

// OptimisticList builds the optimistic list [17]: unlocked search, lock
// pred and curr, then validate by re-traversing from the head; there are
// no mark bits, so validation is a walk (its steps are V1/V2).
func OptimisticList(cfg Config) *machine.Program {
	const gHead = 0
	keys := cfg.Values()
	// After locking, validation walks from Head: node := Head; while
	// node.key < pred.key: node = node.next; valid iff node == pred &&
	// pred.next == curr.
	validateWalk := []machine.Stmt{
		{Label: "V1", Exec: func(c *machine.Ctx) {
			c.L[lLocScan] = c.V(gHead)
			c.Goto(6)
		}},
		{Label: "V2", Exec: func(c *machine.Ctx) {
			scan := c.L[lLocScan]
			predKey := c.Node(c.L[lLocPred]).Key
			if c.Node(scan).Key < predKey {
				c.L[lLocScan] = c.Node(scan).Next
				c.Goto(6)
				return
			}
			// scan.key >= pred.key: valid iff we reached pred itself and
			// pred still points at curr (pred is locked, so pred.next is
			// stable — reading it here costs no extra shared step).
			if scan == c.L[lLocPred] && c.Node(c.L[lLocPred]).Next == c.L[lLocCurr] {
				c.Goto(7)
				return
			}
			c.Unlock(c.L[lLocCurr])
			c.Unlock(c.L[lLocPred])
			c.Goto(0)
		}},
	}
	lockPredCurr := []machine.Stmt{
		{Label: "K1", Exec: func(c *machine.Ctx) {
			if c.TryLock(c.L[lLocPred]) {
				c.Goto(4)
			}
		}},
		{Label: "K2", Exec: func(c *machine.Ctx) {
			if c.TryLock(c.L[lLocCurr]) {
				c.Goto(5)
			}
		}},
	}
	addBody := concat(
		lazySearch(gHead, 0, 3),
		lockPredCurr,
		validateWalk,
		[]machine.Stmt{
			{Label: "A1", Exec: func(c *machine.Ctx) {
				if c.Node(c.L[lLocCurr]).Key == c.Arg {
					c.L[lLocRes] = machine.ValFalse
				} else {
					n := c.Alloc(kindNode)
					c.Node(n).Key = c.Arg
					c.Node(n).Next = c.L[lLocCurr]
					c.Node(c.L[lLocPred]).Next = n
					c.L[lLocRes] = machine.ValTrue
				}
				c.Goto(8)
			}},
			{Label: "A2", Exec: func(c *machine.Ctx) {
				c.Unlock(c.L[lLocCurr])
				c.Goto(9)
			}},
			{Label: "A3", Exec: func(c *machine.Ctx) {
				c.Unlock(c.L[lLocPred])
				c.Return(c.L[lLocRes])
			}},
		},
	)
	removeBody := concat(
		lazySearch(gHead, 0, 3),
		lockPredCurr,
		validateWalk,
		[]machine.Stmt{
			{Label: "R1", Exec: func(c *machine.Ctx) {
				if c.Node(c.L[lLocCurr]).Key == c.Arg {
					c.Node(c.L[lLocPred]).Next = c.Node(c.L[lLocCurr]).Next
					c.L[lLocRes] = machine.ValTrue
				} else {
					c.L[lLocRes] = machine.ValFalse
				}
				c.Goto(8)
			}},
			{Label: "R2", Exec: func(c *machine.Ctx) {
				c.Unlock(c.L[lLocCurr])
				c.Goto(9)
			}},
			{Label: "R3", Exec: func(c *machine.Ctx) {
				c.Unlock(c.L[lLocPred])
				c.Return(c.L[lLocRes])
			}},
		},
	)
	containsBody := concat(
		lazySearch(gHead, 0, 3),
		lockPredCurr,
		validateWalk,
		[]machine.Stmt{
			{Label: "C1", Exec: func(c *machine.Ctx) {
				if c.Node(c.L[lLocCurr]).Key == c.Arg {
					c.L[lLocRes] = machine.ValTrue
				} else {
					c.L[lLocRes] = machine.ValFalse
				}
				c.Goto(8)
			}},
			{Label: "C2", Exec: func(c *machine.Ctx) {
				c.Unlock(c.L[lLocCurr])
				c.Goto(9)
			}},
			{Label: "C3", Exec: func(c *machine.Ctx) {
				c.Unlock(c.L[lLocPred])
				c.Return(c.L[lLocRes])
			}},
		},
	)
	return &machine.Program{
		Name:       "optimistic-list",
		Globals:    machine.Schema{Names: []string{"Head"}, Kinds: []machine.VarKind{machine.KPtr}},
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

// FineGrainedList builds the hand-over-hand locking list [17]: the
// traversal holds two locks at all times, acquiring the next node's lock
// before releasing the predecessor's.
func FineGrainedList(cfg Config) *machine.Program {
	const gHead = 0
	keys := cfg.Values()
	// Hand-over-hand traversal, ending with pred/curr locked and
	// curr.key >= k.
	walk := func(next int) []machine.Stmt {
		return []machine.Stmt{
			{Label: "G1", Exec: func(c *machine.Ctx) {
				h := c.V(gHead)
				if c.TryLock(h) {
					c.L[lLocPred] = h
					c.Goto(1)
				}
			}},
			{Label: "G2", Exec: func(c *machine.Ctx) {
				c.L[lLocCurr] = c.Node(c.L[lLocPred]).Next
				c.Goto(2)
			}},
			{Label: "G3", Exec: func(c *machine.Ctx) {
				if c.TryLock(c.L[lLocCurr]) {
					c.Goto(3)
				}
			}},
			{Label: "G4", Exec: func(c *machine.Ctx) {
				if c.Node(c.L[lLocCurr]).Key < c.Arg {
					c.Unlock(c.L[lLocPred])
					c.L[lLocPred] = c.L[lLocCurr]
					c.Goto(1)
					return
				}
				c.Goto(next)
			}},
		}
	}
	finish := func(action func(c *machine.Ctx)) []machine.Stmt {
		return []machine.Stmt{
			{Label: "W1", Exec: func(c *machine.Ctx) {
				action(c)
				c.Goto(5)
			}},
			{Label: "W2", Exec: func(c *machine.Ctx) {
				c.Unlock(c.L[lLocCurr])
				c.Goto(6)
			}},
			{Label: "W3", Exec: func(c *machine.Ctx) {
				c.Unlock(c.L[lLocPred])
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
		Name:       "fine-grained-list",
		Globals:    machine.Schema{Names: []string{"Head"}, Kinds: []machine.VarKind{machine.KPtr}},
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

// concat joins statement groups into one method body.
func concat(groups ...[]machine.Stmt) []machine.Stmt {
	var out []machine.Stmt
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

func lazyListAlg() *Algorithm {
	return &Algorithm{
		ID:                 "lazy-list",
		Display:            "Heller et al. lazy list",
		Ref:                "[16]",
		NonFixedLPs:        true,
		LockBased:          true,
		ExpectLinearizable: true,
		Build:              LazyList,
		Spec:               lockSetSpec,
	}
}

func optimisticListAlg() *Algorithm {
	return &Algorithm{
		ID:                 "optimistic-list",
		Display:            "Optimistic list",
		Ref:                "[17]",
		LockBased:          true,
		ExpectLinearizable: true,
		Build:              OptimisticList,
		Spec:               lockSetSpec,
	}
}

func fineGrainedListAlg() *Algorithm {
	return &Algorithm{
		ID:                 "fine-grained-list",
		Display:            "Fine-grained syn. list",
		Ref:                "[17]",
		LockBased:          true,
		ExpectLinearizable: true,
		Build:              FineGrainedList,
		Spec:               lockSetSpec,
	}
}
