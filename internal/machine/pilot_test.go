package machine

import (
	"reflect"
	"testing"
)

// farLoopsProgram has one 260-statement method whose first statement
// sends the first caller to a self-loop at pc 1 and every later caller
// to a self-loop at pc 257. The two pcs agree modulo 256.
func farLoopsProgram() *Program {
	body := make([]Stmt, 260)
	for i := range body {
		body[i] = Stmt{Exec: func(c *Ctx) { c.Return(ValOK) }}
	}
	body[0].Exec = func(c *Ctx) {
		if c.V(0) == 0 {
			c.SetV(0, 1)
			c.Goto(1)
		} else {
			c.Goto(257)
		}
	}
	body[1].Exec = func(c *Ctx) { c.Goto(1) }
	body[257].Exec = func(c *Ctx) { c.Goto(257) }
	return &Program{
		Name:    "far-loops",
		Globals: Schema{Names: []string{"flag"}, Kinds: []VarKind{KVal}},
		Methods: []Method{{Name: "Spin", Body: body}},
	}
}

// TestTauProbeKeepsCyclesApartBeyondByteRange: the probe de-duplicates
// cycles by their exact (method, pc set), so two self-loops whose pcs
// agree in their low byte are two cycles.
func TestTauProbeKeepsCyclesApartBeyondByteRange(t *testing.T) {
	var got [][]int
	for _, c := range FindTauCycles(farLoopsProgram(), PilotOptions{}) {
		got = append(got, c.PCs)
	}
	if want := [][]int{{1}, {257}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cycles %v, want %v", got, want)
	}
}

// faultBesideSpinProgram lets thread 0 raise flag a and then fault at
// pc 1 whenever it is scheduled. Thread 1 raises flag b if it finds a
// raised, and thread 2 spins at pc 2 if it finds b raised. The spin is
// reachable only by stepping thread 1 in a state where thread 0 faults.
func faultBesideSpinProgram() *Program {
	return &Program{
		Name:    "fault-beside-spin",
		Globals: Schema{Names: []string{"a", "b"}, Kinds: []VarKind{KVal, KVal}},
		Methods: []Method{{Name: "Run", Body: []Stmt{
			{Exec: func(c *Ctx) {
				switch {
				case c.T == 0:
					c.SetV(0, 1)
					c.Goto(1)
				case c.T == 1 && c.V(0) == 1:
					c.SetV(1, 1)
					c.Return(ValOK)
				case c.T == 2 && c.V(1) == 1:
					c.Goto(2)
				default:
					c.Return(ValOK)
				}
			}},
			{Exec: func(c *Ctx) { panic("fault") }},
			{Exec: func(c *Ctx) { c.Goto(2) }},
		}}},
	}
}

// TestTauProbeSurvivesAnotherThreadsFault: a fault ends only the
// faulting thread's expansion of a state, so the other threads still
// step there and the probe reports thread 2's spin.
func TestTauProbeSurvivesAnotherThreadsFault(t *testing.T) {
	cycles := FindTauCycles(faultBesideSpinProgram(), PilotOptions{Threads: 3, Ops: 1})
	if len(cycles) != 1 || !reflect.DeepEqual(cycles[0].PCs, []int{2}) {
		t.Fatalf("cycles %+v, want the self-loop at pc 2", cycles)
	}
}
