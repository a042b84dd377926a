package algorithms

import (
	"repro/internal/machine"
)

// HSYStack builds the elimination-backoff stack of Hendler, Shavit and
// Yerushalmi [37], modeled — as in the paper's experiments — with a
// single-slot elimination layer on top of a Treiber stack: an operation
// that loses the CAS race on Top backs off to the exchanger, where a push
// publishes an offer that a concurrent pop can take, eliminating the
// pair without touching the stack.
//
// Offer protocol (node fields): Val carries the pushed value and C is the
// offer's phase — 0 waiting, 1 taken (by a pop), 2 withdrawn (by its
// owner). Only the owner clears the elimination slot, and a withdrawn
// offer is abandoned rather than reused, so a pop's take-CAS can never
// succeed against a withdrawn offer.
func HSYStack(cfg Config) *machine.Program {
	const (
		gTop  = 0
		gElim = 1
	)
	return &machine.Program{
		Name: "hsy-stack",
		Globals: machine.Schema{
			Names: []string{"Top", "elim"},
			Kinds: []machine.VarKind{machine.KPtr, machine.KTagged},
		},
		HeapCap:    2*cfg.TotalOps() + cfg.Threads + 2,
		NLocals:    4,
		LocalKinds: []machine.VarKind{machine.KPtr, machine.KPtr, machine.KPtr, machine.KVal},
		Methods: []machine.Method{
			{
				Name: "Push",
				Args: cfg.Values(),
				Body: []machine.Stmt{
					{Label: "S1", Exec: func(c *machine.Ctx) {
						n := c.Alloc(kindNode)
						c.Node(n).Val = c.Arg
						c.L[sLocN] = n
						c.Goto(1)
					}},
					{Label: "S2", Exec: func(c *machine.Ctx) {
						t := c.V(gTop)
						c.L[sLocT] = t
						c.Node(c.L[sLocN]).Next = t
						c.Goto(2)
					}},
					{Label: "S3", Exec: func(c *machine.Ctx) {
						if c.CASV(gTop, c.L[sLocT], c.L[sLocN]) {
							c.Return(machine.ValOK)
						} else {
							c.Goto(3) // back off to the exchanger
						}
					}},
					{Label: "S4", Exec: func(c *machine.Ctx) {
						if c.V(gElim) != 0 {
							c.Goto(1) // slot busy: retry the stack
							return
						}
						o := c.Alloc(kindOffer)
						c.Node(o).Val = c.Arg
						c.L[sLocO] = o
						c.SetV(gElim, machine.Ref(o))
						c.Goto(4)
					}},
					{Label: "S5", Exec: func(c *machine.Ctx) {
						// Withdraw if still waiting (atomic RMW on the
						// offer phase); otherwise a pop took it.
						o := c.Node(c.L[sLocO])
						if o.C == 0 {
							o.C = 2
							c.Goto(5)
						} else {
							c.Goto(6)
						}
					}},
					{Label: "S6", Exec: func(c *machine.Ctx) {
						c.SetV(gElim, 0) // withdrawn: clear slot, retry stack
						c.L[sLocO] = 0
						c.Goto(1)
					}},
					{Label: "S7", Exec: func(c *machine.Ctx) {
						c.SetV(gElim, 0) // eliminated
						c.Return(machine.ValOK)
					}},
				},
			},
			{
				Name: "Pop",
				Body: []machine.Stmt{
					{Label: "O1", Exec: func(c *machine.Ctx) {
						t := c.V(gTop)
						if t == 0 {
							c.L[sLocF] = 1 // saw an empty stack
							c.Goto(3)
							return
						}
						c.L[sLocF] = 0
						c.L[sLocT] = t
						c.Goto(1)
					}},
					{Label: "O2", Exec: func(c *machine.Ctx) {
						c.L[sLocN] = c.Node(c.L[sLocT]).Next
						c.Goto(2)
					}},
					{Label: "O3", Exec: func(c *machine.Ctx) {
						if c.CASV(gTop, c.L[sLocT], c.L[sLocN]) {
							c.Return(c.Node(c.L[sLocT]).Val)
						} else {
							c.Goto(3) // back off to the exchanger
						}
					}},
					{Label: "O4", Exec: func(c *machine.Ctx) {
						e := c.V(gElim)
						if machine.IsRef(e) {
							o := c.Node(machine.Deref(e))
							if o.C == 0 {
								o.C = 1 // take the offer (atomic RMW)
								c.Return(o.Val)
								return
							}
						}
						// No takeable offer: an empty-stack pop returns
						// empty (LP at O1), a raced pop retries.
						if c.L[sLocF] == 1 {
							c.Return(machine.ValEmpty)
						} else {
							c.Goto(0)
						}
					}},
				},
			},
		},
	}
}

func hsyStackAlg() *Algorithm {
	return &Algorithm{
		ID:                 "hsy-stack",
		Display:            "HSY stack",
		Ref:                "[37]",
		NonFixedLPs:        true,
		ExpectLinearizable: true,
		ExpectLockFree:     true,
		Build:              HSYStack,
		Spec:               stackSpec,
	}
}
