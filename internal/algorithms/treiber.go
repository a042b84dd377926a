package algorithms

import (
	"repro/internal/machine"
	"repro/internal/spec"
)

// Shared local register layout for the stack family.
const (
	sLocT = 0 // t: snapshot of Top
	sLocN = 1 // n: new node (push) / next (pop)
	sLocO = 2 // o: elimination offer (HSY) / scratch
	sLocF = 3 // flag local (HSY pop: "saw empty")
)

// treiberPush is the push method shared by the Treiber variants:
//
//	P1: n := new node(v)
//	P2: t := Top; n.next := t
//	P3: if CAS(Top, t, n) return ok else goto P2
func treiberPush(gTop int, vals []int32) machine.Method {
	return machine.Method{
		Name: "Push",
		Args: vals,
		Body: []machine.Stmt{
			{Label: "P1", Exec: func(c *machine.Ctx) {
				n := c.Alloc(kindNode)
				c.Node(n).Val = c.Arg
				c.L[sLocN] = n
				c.Goto(1)
			}},
			{Label: "P2", Exec: func(c *machine.Ctx) {
				t := c.V(gTop)
				c.L[sLocT] = t
				c.Node(c.L[sLocN]).Next = t
				c.Goto(2)
			}},
			{Label: "P3", Exec: func(c *machine.Ctx) {
				if c.CASV(gTop, c.L[sLocT], c.L[sLocN]) {
					c.Return(machine.ValOK)
				} else {
					c.Goto(1)
				}
			}},
		},
	}
}

// stackSpec builds the matching specification.
func stackSpec(cfg Config) *machine.Program {
	return spec.Stack(cfg.Values(), cfg.TotalOps())
}

// treiberHP builds the hazard-pointer variants. Each thread owns one
// hazard pointer HP_i (a shared global readable by all threads). Pop
// protects its target with the hazard pointer, re-validates Top, and
// after a successful CAS reclaims the cell — immediately if no other
// thread's hazard pointer protects it. The two variants differ only in
// what happens when the cell is still protected:
//
//   - Michael's original scheme [24] defers reclamation (the cell is
//     freed once the protecting hazard pointer moves on — our
//     garbage-collecting canonicalizer performs exactly that deferred
//     free), keeping pop wait-free past the scan.
//   - The revised stack of Fu et al. [10] instead spins until the hazard
//     pointer releases the cell, which breaks lock-freedom: a stalled
//     reader makes the reclaiming pop loop forever (the new bug of
//     Table II row 3).
func treiberHP(name string, spinOnHazard bool, cfg Config) *machine.Program {
	const gTop = 0
	gHP := func(t int) int { return 1 + t }
	names := []string{"Top"}
	kinds := []machine.VarKind{machine.KPtr}
	for i := 0; i < cfg.Threads; i++ {
		names = append(names, "HP"+string(rune('0'+i)))
		kinds = append(kinds, machine.KPtr)
	}
	hazardByOther := func(c *machine.Ctx, p int32) bool {
		for i := 0; i < cfg.Threads; i++ {
			if i != c.T && c.V(gHP(i)) == p {
				return true
			}
		}
		return false
	}
	reclaim := machine.Stmt{Label: "H7", Exec: func(c *machine.Ctx) {
		t := c.L[sLocT]
		v := c.Node(t).Val
		if hazardByOther(c, t) {
			if spinOnHazard {
				c.Goto(6) // busy-wait until the hazard pointer moves: the bug
				return
			}
			// Deferred reclamation: the cell is freed when the last
			// protecting hazard pointer moves (garbage collection).
			c.Return(v)
			return
		}
		c.Free(t)
		c.Return(v)
	}}
	return &machine.Program{
		Name:       name,
		Globals:    machine.Schema{Names: names, Kinds: kinds},
		HeapCap:    cfg.TotalOps() + 2,
		NLocals:    2,
		LocalKinds: []machine.VarKind{machine.KPtr, machine.KPtr},
		Methods: []machine.Method{
			treiberPush(gTop, cfg.Values()),
			{
				Name: "Pop",
				Body: []machine.Stmt{
					{Label: "H1", Exec: func(c *machine.Ctx) {
						t := c.V(gTop)
						if t == 0 {
							c.Return(machine.ValEmpty)
							return
						}
						c.L[sLocT] = t
						c.Goto(1)
					}},
					{Label: "H2", Exec: func(c *machine.Ctx) {
						c.SetV(gHP(c.T), c.L[sLocT])
						c.Goto(2)
					}},
					{Label: "H3", Exec: func(c *machine.Ctx) {
						if c.V(gTop) != c.L[sLocT] {
							c.Goto(0)
						} else {
							c.Goto(3)
						}
					}},
					{Label: "H4", Exec: func(c *machine.Ctx) {
						c.L[sLocN] = c.Node(c.L[sLocT]).Next
						c.Goto(4)
					}},
					{Label: "H5", Exec: func(c *machine.Ctx) {
						if c.CASV(gTop, c.L[sLocT], c.L[sLocN]) {
							c.Goto(5)
						} else {
							c.Goto(0)
						}
					}},
					{Label: "H6", Exec: func(c *machine.Ctx) {
						c.SetV(gHP(c.T), 0)
						c.Goto(6)
					}},
					reclaim,
				},
			},
		},
	}
}

func treiberHPAlg() *Algorithm {
	return &Algorithm{
		ID:                 "treiber-hp",
		Display:            "Treiber stack + HP",
		Ref:                "[24]",
		ExpectLinearizable: true,
		ExpectLockFree:     true,
		Build:              func(cfg Config) *machine.Program { return treiberHP("treiber-hp", false, cfg) },
		Spec:               stackSpec,
	}
}

func treiberHPFuAlg() *Algorithm {
	return &Algorithm{
		ID:                 "treiber-hp-fu",
		Display:            "Treiber stack + HP (revised)",
		Ref:                "[10]",
		ExpectLinearizable: true,
		ExpectLockFree:     false, // the new bug found by the paper
		Build:              func(cfg Config) *machine.Program { return treiberHP("treiber-hp-fu", true, cfg) },
		Spec:               stackSpec,
	}
}

// TreiberUnsafeFree is a deliberately broken extension beyond Table II:
// the Treiber stack with immediate explicit reclamation and NO hazard
// pointers. A popped cell is freed at once and the allocator reuses it,
// so a stalled pop holding a stale (top, next) snapshot can pass its CAS
// against a recycled cell — the classic ABA failure that hazard pointers
// exist to prevent. The linearizability check finds the resulting
// corrupted history automatically (2 threads × 3 ops suffice).
func TreiberUnsafeFree(cfg Config) *machine.Program {
	const gTop = 0
	return &machine.Program{
		Name:       "treiber-unsafe-free",
		Globals:    machine.Schema{Names: []string{"Top"}, Kinds: []machine.VarKind{machine.KPtr}},
		HeapCap:    cfg.TotalOps() + 1,
		NLocals:    2,
		LocalKinds: []machine.VarKind{machine.KPtr, machine.KPtr},
		Methods: []machine.Method{
			treiberPush(gTop, cfg.Values()),
			{
				Name: "Pop",
				Body: []machine.Stmt{
					{Label: "U1", Exec: func(c *machine.Ctx) {
						t := c.V(gTop)
						if t == 0 {
							c.Return(machine.ValEmpty)
							return
						}
						c.L[sLocT] = t
						c.Goto(1)
					}},
					{Label: "U2", Exec: func(c *machine.Ctx) {
						c.L[sLocN] = c.Node(c.L[sLocT]).Next
						c.Goto(2)
					}},
					{Label: "U3", Exec: func(c *machine.Ctx) {
						if c.CASV(gTop, c.L[sLocT], c.L[sLocN]) {
							v := c.Node(c.L[sLocT]).Val
							c.Free(c.L[sLocT]) // immediate reuse: ABA
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

func treiberUnsafeFreeAlg() *Algorithm {
	return &Algorithm{
		ID:                 "treiber-unsafe-free",
		Display:            "Treiber stack + unsafe free (ABA)",
		Ref:                "(extension)",
		Extension:          true,
		ExpectLinearizable: false,
		ExpectLockFree:     true,
		Build:              TreiberUnsafeFree,
		Spec:               stackSpec,
	}
}
