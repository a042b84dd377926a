// Custom object: model your own concurrent object against its sequential
// specification, without touching the packaged registry.
//
// The object is a tiny "ticket dispenser" with two implementations:
//
//   - a correct one that takes a ticket with an atomic fetch-and-add;
//   - a racy one that reads the counter and writes it back in two steps,
//     so two threads can be handed the same ticket.
//
// The example verifies both against the same atomic specification and
// prints the duplicate-ticket history the checker finds for the racy
// version — demonstrating that defining a new object is just writing its
// statements.
package main

import (
	"context"
	"fmt"
	"log"

	bbv "repro"
	"repro/internal/machine"
)

// dispenserSpec is the linearizable specification: Take() atomically
// returns the next ticket number.
func dispenserSpec() *bbv.Program {
	return &machine.Program{
		Name:    "dispenser-spec",
		Globals: machine.Schema{Names: []string{"next"}, Kinds: []machine.VarKind{machine.KVal}},
		Methods: []machine.Method{{
			Name: "Take",
			Body: []machine.Stmt{{
				Label: "T",
				Exec: func(c *machine.Ctx) {
					t := c.V(0)
					c.SetV(0, t+1)
					c.Return(t)
				},
			}},
		}},
	}
}

// atomicDispenser implements Take with a CAS retry loop (correct).
func atomicDispenser() *bbv.Program {
	return &machine.Program{
		Name:    "dispenser-cas",
		Globals: machine.Schema{Names: []string{"next"}, Kinds: []machine.VarKind{machine.KVal}},
		NLocals: 1,
		Methods: []machine.Method{{
			Name: "Take",
			Body: []machine.Stmt{
				{Label: "T1", Exec: func(c *machine.Ctx) {
					c.L[0] = c.V(0) // read
					c.Goto(1)
				}},
				{Label: "T2", Exec: func(c *machine.Ctx) {
					if c.CASV(0, c.L[0], c.L[0]+1) { // CAS
						c.Return(c.L[0])
					} else {
						c.Goto(0)
					}
				}},
			},
		}},
	}
}

// racyDispenser reads and writes non-atomically (broken).
func racyDispenser() *bbv.Program {
	return &machine.Program{
		Name:    "dispenser-racy",
		Globals: machine.Schema{Names: []string{"next"}, Kinds: []machine.VarKind{machine.KVal}},
		NLocals: 1,
		Methods: []machine.Method{{
			Name: "Take",
			Body: []machine.Stmt{
				{Label: "T1", Exec: func(c *machine.Ctx) {
					c.L[0] = c.V(0) // read
					c.Goto(1)
				}},
				{Label: "T2", Exec: func(c *machine.Ctx) {
					c.SetV(0, c.L[0]+1) // blind write: lost update
					c.Return(c.L[0])
				}},
			},
		}},
	}
}

func main() {
	ctx := context.Background()
	in := bbv.Instance{Threads: 2, Ops: 2}
	spec := dispenserSpec()

	for _, impl := range []*bbv.Program{atomicDispenser(), racyDispenser()} {
		lin, err := bbv.CheckLinearizabilityContext(ctx, impl, spec, in)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-15s linearizable=%v  (%d states, quotient %d)\n",
			impl.Name, lin.Linearizable, lin.ImplStates, lin.ImplQuotientStates)
		if !lin.Linearizable {
			fmt.Println("  duplicate-ticket history:")
			fmt.Print(indent(lin.Counterexample.Format()))
		}
		lf, err := bbv.CheckLockFreeContext(ctx, impl, in)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-15s lock-free=%v\n", impl.Name, lf.LockFree)
	}
}

func indent(s string) string {
	out := ""
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if start < i {
				out += "    " + s[start:i] + "\n"
			}
			start = i + 1
		}
	}
	return out
}
