package algorithms

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/spec"
)

// queueSpec builds the matching FIFO specification.
func queueSpec(cfg Config) *machine.Program {
	return spec.Queue(cfg.Values(), cfg.TotalOps())
}

// HWQueue builds the Herlihy–Wing array queue [18]: enqueue reserves a
// slot with fetch-and-increment and fills it; dequeue scans the array
// swapping out values, restarting forever on an empty queue — dequeue is
// therefore not lock-free (Table II row 10, Table V).
func HWQueue(cfg Config) *machine.Program {
	slots := cfg.TotalOps()
	names := []string{"back"}
	kinds := []machine.VarKind{machine.KVal}
	for i := 0; i < slots; i++ {
		names = append(names, fmt.Sprintf("q%d", i))
		kinds = append(kinds, machine.KVal)
	}
	slot := func(i int32) int { return 1 + int(i) }
	const (
		locI = 0
		locN = 1
	)
	return &machine.Program{
		Name:    "hw-queue",
		Globals: machine.Schema{Names: names, Kinds: kinds},
		NLocals: 2,
		Methods: []machine.Method{
			{
				Name: "Enq",
				Args: cfg.Values(),
				Body: []machine.Stmt{
					{Label: "E1", Exec: func(c *machine.Ctx) {
						i := c.V(0)
						c.SetV(0, i+1) // fetch-and-increment back
						c.L[locI] = i
						c.Goto(1)
					}},
					{Label: "E2", Exec: func(c *machine.Ctx) {
						c.SetV(slot(c.L[locI]), c.Arg)
						c.Return(machine.ValOK)
					}},
				},
			},
			{
				Name: "Deq",
				Body: []machine.Stmt{
					{Label: "D1", Exec: func(c *machine.Ctx) {
						c.L[locN] = c.V(0) // range := back
						c.L[locI] = 0
						c.Goto(1)
					}},
					{Label: "D2", Exec: func(c *machine.Ctx) {
						if c.L[locI] >= c.L[locN] {
							c.Goto(0) // rescan forever
							return
						}
						x := c.V(slot(c.L[locI]))
						c.SetV(slot(c.L[locI]), 0) // swap(q[i], null)
						if x != 0 {
							c.Return(x)
						} else {
							c.L[locI]++
							c.Goto(1)
						}
					}},
				},
			},
		},
	}
}

func hwQueueAlg() *Algorithm {
	return &Algorithm{
		ID:                 "hw-queue",
		Display:            "HW queue",
		Ref:                "[18]",
		NonFixedLPs:        true,
		ExpectLinearizable: true,
		ExpectLockFree:     false,
		Build:              HWQueue,
		Spec:               queueSpec,
	}
}
