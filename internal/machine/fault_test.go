package machine_test

// Model faults are results, not crashes: a statement that panics during
// exploration surfaces as one *machine.ModelFaultError, identical for
// every worker count and memory budget, and the spill directory is still
// cleaned up.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/bbvl"
	"repro/internal/machine"
	"repro/internal/statestore"
)

// brokenModel dereferences the nil Top at P1 (line 7, column 11) on the
// first Push.
const brokenModel = `model broken
node cell { val: val  next: ptr }
globals { Top: ptr }
spec stack
method Push(v: vals) {
  var t: ptr
  P1: t = Top.next; goto P2
  P2: if cas(Top, t, nil) { return ok } else { goto P1 }
}
method Pop() { P9: return empty }
`

// faultConfigs are the explorer configurations every fault test crosses:
// one, two and eight workers in RAM, one worker under an 8 MiB spill
// budget, and four workers under a 1-byte budget that spills every level.
var faultConfigs = []struct {
	name      string
	workers   int
	memBudget int64
}{
	{"workers=1", 1, 0},
	{"workers=2", 2, 0},
	{"workers=8", 8, 0},
	{"membudget=8MiB", 1, 8 << 20},
	{"workers=4,membudget=1B", 4, 1},
}

// faultAcrossConfigs explores p under every fault configuration and
// returns the one error string they all agree on.
func faultAcrossConfigs(t *testing.T, p *machine.Program, threads, ops int) (string, *machine.ModelFaultError) {
	t.Helper()
	var want string
	var first *machine.ModelFaultError
	for _, c := range faultConfigs {
		dir := t.TempDir()
		_, _, err := machine.ExploreWithInfoContext(context.Background(), p, machine.Options{
			Threads: threads, Ops: ops, Workers: c.workers,
			MemBudget: c.memBudget, SpillDir: dir, Backend: statestore.Runtime(),
		})
		var fault *machine.ModelFaultError
		if !errors.As(err, &fault) {
			t.Fatalf("%s: err = %v, want a *machine.ModelFaultError", c.name, err)
		}
		if first == nil {
			want, first = err.Error(), fault
		} else if err.Error() != want {
			t.Fatalf("%s: fault differs from workers=1:\n got %s\nwant %s", c.name, err, want)
		}
		requireEmptyDir(t, dir, c.name+" after a model fault")
	}
	return want, first
}

// TestModelFaultIdenticalAcrossWorkers explores the nil-dereferencing
// model at one, two and eight workers and under spill budgets: every run
// returns the same positioned fault and leaves no spill file behind.
func TestModelFaultIdenticalAcrossWorkers(t *testing.T) {
	m, err := bbvl.Load("broken.bbvl", []byte(brokenModel))
	if err != nil {
		t.Fatal(err)
	}
	p := m.Build(algorithms.Config{Threads: 2, Ops: 2})
	msg, fault := faultAcrossConfigs(t, p, 2, 2)
	if !strings.Contains(msg, "model runtime error") || !strings.Contains(msg, "broken.bbvl:7:11") {
		t.Errorf("fault %q lacks the model runtime error and its position", msg)
	}
	if fault.Program != p.Name || fault.Thread != 0 || fault.Method != "Push" || fault.Label != "P1" {
		t.Errorf("fault site = %s t%d %s.%s, want %s t1 Push.P1", fault.Program, fault.Thread+1, fault.Method, fault.Label, p.Name)
	}
}

// lateFault is a program whose Step statement faults only deep in the
// state space, in many states of one BFS level, with a message that names
// the faulting state: every worker count must report the lowest one in
// discovery order.
func lateFault() *machine.Program {
	return &machine.Program{
		Name:    "late-fault",
		Globals: machine.Schema{Names: []string{"a", "b"}, Kinds: []machine.VarKind{machine.KVal, machine.KVal}},
		Methods: []machine.Method{{
			Name: "Step",
			Args: []int32{1, 2},
			Body: []machine.Stmt{
				{Label: "S1", Exec: func(c *machine.Ctx) {
					c.SetV(0, (c.V(0)+c.Arg)%7)
					c.Goto(1)
				}},
				{Label: "S2", Exec: func(c *machine.Ctx) {
					if c.V(0) == 5 && c.V(1) >= 2 {
						panic(fmt.Sprintf("late fault at a=%d b=%d arg=%d", c.V(0), c.V(1), c.Arg))
					}
					c.SetV(1, (c.V(1)+1)%5)
					c.Return(c.V(1))
				}},
			},
		}},
	}
}

// TestModelFaultLowestStateWins pins the level-barrier rule on a fault
// that many frontier states of one level raise.
func TestModelFaultLowestStateWins(t *testing.T) {
	msg, fault := faultAcrossConfigs(t, lateFault(), 3, 3)
	if fault.Label != "S2" || !strings.Contains(msg, "late fault at a=5") {
		t.Errorf("fault = %q, want the S2 late fault", msg)
	}
}

// TestInitFaultIsModelFault pins that a panicking Program.Init is a model
// fault too, with the "init" site.
func TestInitFaultIsModelFault(t *testing.T) {
	p := lateFault()
	p.Init = func(g *machine.Global) { g.Vars[5] = 1 }
	msg, fault := faultAcrossConfigs(t, p, 1, 1)
	if fault.Thread != -1 || fault.Label != "init" || !strings.Contains(msg, "model runtime error in init") {
		t.Errorf("fault = %q (thread %d, label %q), want an init fault", msg, fault.Thread, fault.Label)
	}
}

// TestLayoutOverflowIsModelFault pins that a successor holding a value
// outside the structural value window fails as a model fault naming the
// statement that stored it, not as a crash in the codec.
func TestLayoutOverflowIsModelFault(t *testing.T) {
	p := &machine.Program{
		Name:    "overflow",
		Globals: machine.Schema{Names: []string{"g"}, Kinds: []machine.VarKind{machine.KVal}},
		Methods: []machine.Method{{
			Name: "Set",
			Body: []machine.Stmt{{Label: "P1", Exec: func(c *machine.Ctx) {
				c.SetV(0, machine.EncodeMax+1)
				c.Return(machine.ValOK)
			}}},
		}},
	}
	msg, fault := faultAcrossConfigs(t, p, 1, 1)
	if fault.Method != "Set" || fault.Label != "P1" || !strings.Contains(msg, "outside slot range") {
		t.Errorf("fault = %q, want the P1 store outside the layout", msg)
	}
}

// foreignUnlockModel releases, in Pop, the lock of the Top node without
// holding it (line 11, column 16); Push takes that lock and keeps it.
const foreignUnlockModel = `model foreign
node cell { val: val  next: ptr }
globals { Top: ptr }
spec stack
init { Top = alloc(cell) }
method Push(v: vals) {
  var t: ptr
  P1: t = Top; lock(t); return ok
}
method Pop() {
  var t: ptr
  P2: t = Top; unlock(t); return empty
}
`

// TestUnlockNotHeldIsModelFault pins that releasing a lock the thread
// does not hold is a positioned model fault, the same at every worker
// count and memory budget.
func TestUnlockNotHeldIsModelFault(t *testing.T) {
	m, err := bbvl.Load("foreign.bbvl", []byte(foreignUnlockModel))
	if err != nil {
		t.Fatal(err)
	}
	p := m.Build(algorithms.Config{Threads: 2, Ops: 2})
	msg, fault := faultAcrossConfigs(t, p, 2, 2)
	if fault.Method != "Pop" || fault.Label != "P2" || !strings.Contains(msg, "foreign.bbvl:12:16: unlock(t): thread 1 does not hold the lock") {
		t.Errorf("fault = %q, want the P2 unlock of a lock Pop does not hold", msg)
	}
}

// TestFastPathOverflowIsModelFault pins that successors keyed without
// the canonicalizer keep every slot's range check: a goto step that
// stores a value outside the structural window into a value local (its
// key is patched) or into a value global (it is encoded directly) fails
// as the same positioned model fault under every configuration.
func TestFastPathOverflowIsModelFault(t *testing.T) {
	for _, c := range []struct{ name, stmt string }{
		{"val local", "x = 200"},
		{"val global", "G = 200"},
	} {
		src := fmt.Sprintf(`model overflow
globals { G: val }
spec stack
method Push(v: vals) {
  var x: val
  P1: %s; goto P2
  P2: return ok
}
method Pop() { P9: return empty }
`, c.stmt)
		m, err := bbvl.Load("overflow.bbvl", []byte(src))
		if err != nil {
			t.Fatal(err)
		}
		msg, fault := faultAcrossConfigs(t, m.Build(algorithms.Config{Threads: 2, Ops: 1}), 2, 1)
		if fault.Method != "Push" || fault.Label != "P1" || !strings.Contains(msg, "value 200 outside slot range") {
			t.Errorf("%s: fault = %q, want the P1 store outside the layout", c.name, msg)
		}
	}
}
