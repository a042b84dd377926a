package vet_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bisim"
	"repro/internal/lts"
	"repro/internal/machine"
	"repro/internal/vet"
)

// Property test for the independence analysis: generate randomized
// small IR programs and replay every pair of statements the analysis
// declares independent through machine.ValidateIndependence, which
// executes the pair in both orders from every reachable pilot state
// and demands identical canonical results and consistent enabledness.
// The generator deliberately covers the analysis's hard cases: fresh
// and published pointers, field accesses through shared bases (which
// may fault), CAS on globals and fields, small heaps that can exhaust,
// branches with falling paths, and goto cycles.

// progGen builds one random program, keeping pointer/value kind
// discipline so canonicalization stays meaningful (pointer slots only
// ever hold nil or live cell indices — the generator never emits free).
type progGen struct {
	rng        *rand.Rand
	valGlobals []int
	ptrGlobals []int
	valLocals  []int
	ptrLocals  []int
	nstmts     int
}

func (g *progGen) pick(xs []int) (int, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	return xs[g.rng.Intn(len(xs))], true
}

func lit(v int32) machine.Operand { return machine.Operand{Kind: machine.OperandLit, Lit: v} }

func locOp(l machine.Loc) machine.Operand {
	return machine.Operand{Kind: machine.OperandLoc, Loc: l}
}

func globalLoc(i int) machine.Loc {
	return machine.Loc{Kind: machine.LocGlobal, Index: i, Name: fmt.Sprintf("G%d", i)}
}
func localLoc(i int) machine.Loc {
	return machine.Loc{Kind: machine.LocLocal, Index: i, Name: fmt.Sprintf("l%d", i)}
}

// fieldLoc builds a field location through a random pointer variable.
func (g *progGen) fieldLoc(f machine.FieldSel) (machine.Loc, bool) {
	useGlobal := g.rng.Intn(2) == 0
	if useGlobal {
		if i, ok := g.pick(g.ptrGlobals); ok {
			return machine.Loc{Kind: machine.LocField, Index: i, BaseGlobal: true, Field: f, Name: fmt.Sprintf("G%d.%s", i, f)}, true
		}
	}
	if i, ok := g.pick(g.ptrLocals); ok {
		return machine.Loc{Kind: machine.LocField, Index: i, Field: f, Name: fmt.Sprintf("l%d.%s", i, f)}, true
	}
	return machine.Loc{}, false
}

// valOperand yields a value-kinded operand.
func (g *progGen) valOperand() machine.Operand {
	switch g.rng.Intn(6) {
	case 0:
		return lit(int32(g.rng.Intn(3)))
	case 1:
		return machine.Operand{Kind: machine.OperandArg}
	case 2:
		return machine.Operand{Kind: machine.OperandSelf}
	case 3:
		if i, ok := g.pick(g.valGlobals); ok {
			return locOp(globalLoc(i))
		}
	case 4:
		if l, ok := g.fieldLoc(machine.FieldVal); ok {
			return locOp(l)
		}
	}
	if i, ok := g.pick(g.valLocals); ok {
		return locOp(localLoc(i))
	}
	return lit(int32(g.rng.Intn(3)))
}

// ptrOperand yields a pointer-kinded operand (nil, a pointer variable,
// or a next-field read).
func (g *progGen) ptrOperand() machine.Operand {
	switch g.rng.Intn(4) {
	case 0:
		return lit(0) // nil
	case 1:
		if i, ok := g.pick(g.ptrGlobals); ok {
			return locOp(globalLoc(i))
		}
	case 2:
		if l, ok := g.fieldLoc(machine.FieldNext); ok {
			return locOp(l)
		}
	}
	if i, ok := g.pick(g.ptrLocals); ok {
		return locOp(localLoc(i))
	}
	return lit(0)
}

// bodyInstr yields one non-terminating instruction.
func (g *progGen) bodyInstr() (machine.Instr, bool) {
	switch g.rng.Intn(8) {
	case 0:
		if i, ok := g.pick(g.valGlobals); ok {
			return machine.Instr{Op: machine.IRAssign, LHS: globalLoc(i), A: g.valOperand()}, true
		}
	case 1:
		if i, ok := g.pick(g.valLocals); ok {
			return machine.Instr{Op: machine.IRAssign, LHS: localLoc(i), A: g.valOperand()}, true
		}
	case 2:
		if i, ok := g.pick(g.ptrLocals); ok {
			if g.rng.Intn(2) == 0 {
				return machine.Instr{Op: machine.IRAlloc, LHS: localLoc(i), AllocKind: 1}, true
			}
			return machine.Instr{Op: machine.IRAssign, LHS: localLoc(i), A: g.ptrOperand()}, true
		}
	case 3:
		if i, ok := g.pick(g.ptrGlobals); ok {
			return machine.Instr{Op: machine.IRAssign, LHS: globalLoc(i), A: g.ptrOperand()}, true
		}
	case 4:
		if l, ok := g.fieldLoc(machine.FieldVal); ok {
			return machine.Instr{Op: machine.IRAssign, LHS: l, A: g.valOperand()}, true
		}
	case 5:
		if l, ok := g.fieldLoc(machine.FieldNext); ok {
			return machine.Instr{Op: machine.IRAssign, LHS: l, A: g.ptrOperand()}, true
		}
	case 6:
		if i, ok := g.pick(g.valGlobals); ok {
			return machine.Instr{Op: machine.IRCas, LHS: globalLoc(i), A: lit(int32(g.rng.Intn(3))), B: lit(int32(g.rng.Intn(3)))}, true
		}
	case 7:
		if l, ok := g.fieldLoc(machine.FieldVal); ok {
			return machine.Instr{Op: machine.IRCas, LHS: l, A: lit(int32(g.rng.Intn(3))), B: lit(int32(g.rng.Intn(3)))}, true
		}
	}
	return machine.Instr{}, false
}

func (g *progGen) gotoInstr() machine.Instr {
	return machine.Instr{Op: machine.IRGoto, Target: g.rng.Intn(g.nstmts)}
}

// terminator yields an instruction sequence suffix that (usually)
// transfers control on every path.
func (g *progGen) terminator() []machine.Instr {
	switch g.rng.Intn(6) {
	case 0:
		return []machine.Instr{{Op: machine.IRReturn, A: g.valOperand()}}
	case 1:
		return []machine.Instr{{
			Op: machine.IRIfCmp, A: g.valOperand(), B: g.valOperand(), Negate: g.rng.Intn(2) == 0,
			Then: []machine.Instr{g.gotoInstr()},
			Else: []machine.Instr{{Op: machine.IRReturn, A: lit(int32(g.rng.Intn(3)))}},
		}}
	case 2:
		if i, ok := g.pick(g.valGlobals); ok {
			return []machine.Instr{{
				Op: machine.IRIfCas, LHS: globalLoc(i), A: lit(int32(g.rng.Intn(3))), B: lit(int32(g.rng.Intn(3))),
				Then: []machine.Instr{g.gotoInstr()},
				Else: []machine.Instr{g.gotoInstr()},
			}}
		}
	case 3:
		// One falling branch: the statement blocks when the condition
		// picks the empty arm and the sequence ends.
		return []machine.Instr{{
			Op: machine.IRIfCmp, A: g.valOperand(), B: g.valOperand(),
			Then: []machine.Instr{g.gotoInstr()},
		}}
	}
	return []machine.Instr{g.gotoInstr()}
}

// genProgram builds the random program for one seed.
func genProgram(seed int64) *machine.Program {
	rng := rand.New(rand.NewSource(seed))
	g := &progGen{rng: rng}

	nglobals := 1 + rng.Intn(3)
	names := make([]string, nglobals)
	kinds := make([]machine.VarKind, nglobals)
	for i := range names {
		names[i] = fmt.Sprintf("G%d", i)
		if rng.Intn(3) == 0 {
			kinds[i] = machine.KPtr
			g.ptrGlobals = append(g.ptrGlobals, i)
		} else {
			kinds[i] = machine.KVal
			g.valGlobals = append(g.valGlobals, i)
		}
	}
	nlocals := 2 + rng.Intn(2)
	localKinds := make([]machine.VarKind, nlocals)
	for i := range localKinds {
		if rng.Intn(2) == 0 {
			localKinds[i] = machine.KPtr
			g.ptrLocals = append(g.ptrLocals, i)
		} else {
			localKinds[i] = machine.KVal
			g.valLocals = append(g.valLocals, i)
		}
	}
	// Small heaps exercise the exhaustion path (allocs then conflict
	// through the allocator slot); large ones the alloc-safe path.
	heapCap := []int{2, 3, 10}[rng.Intn(3)]

	nmethods := 1 + rng.Intn(2)
	var methods []machine.Method
	for mi := 0; mi < nmethods; mi++ {
		g.nstmts = 2 + rng.Intn(3)
		var body []machine.Stmt
		for si := 0; si < g.nstmts; si++ {
			var seq []machine.Instr
			for k := rng.Intn(3); k > 0; k-- {
				if in, ok := g.bodyInstr(); ok {
					seq = append(seq, in)
				}
			}
			if rng.Intn(10) > 0 { // 10%: no terminator — every path blocks
				seq = append(seq, g.terminator()...)
			}
			if seq == nil {
				// A statement with no instructions blocks forever; keep
				// its IR non-nil so the program still counts as compiled.
				seq = []machine.Instr{}
			}
			label := fmt.Sprintf("M%dS%d", mi, si)
			body = append(body, machine.Stmt{
				Label: label,
				Exec: func(c *machine.Ctx) {
					machine.RunIR(c, seq)
				},
				IR: seq,
			})
		}
		m := machine.Method{Name: fmt.Sprintf("M%d", mi), Body: body}
		if rng.Intn(2) == 0 {
			m.Args = []int32{1, 2}
		}
		methods = append(methods, m)
	}

	return &machine.Program{
		Name:       fmt.Sprintf("rand-%d", seed),
		Globals:    machine.Schema{Names: names, Kinds: kinds},
		HeapCap:    heapCap,
		NLocals:    nlocals,
		LocalKinds: localKinds,
		Methods:    methods,
	}
}

// TestIndependencePropertyRandomized: 200 seeds, every declared
// independence dynamically validated over the full pilot state space.
// The explorations run with the key oracle on, so every random program
// also checks the explorer's incremental successor keys.
func TestIndependencePropertyRandomized(t *testing.T) {
	t.Cleanup(machine.EnableKeyOracle())
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	totalIndep, checkedEquiv := 0, 0
	for seed := 0; seed < seeds; seed++ {
		p := genProgram(int64(seed))
		art := vet.Reduce(p, vet.Options{Threads: 2, Ops: 2, MaxPilotStates: 2000})
		if art == nil {
			t.Fatalf("seed %d: Reduce returned nil for an IR program", seed)
		}
		for i := range art.Independent {
			for j := 0; j < i; j++ {
				if art.Independent[i][j] {
					totalIndep++
				}
			}
		}
		err := machine.ValidateIndependence(p, machine.PilotOptions{Threads: 2, Ops: 2, MaxStates: 20000}, art.Oracle())
		if err != nil {
			t.Errorf("seed %d: %v\n%s", seed, err, art.Format())
		}
		// End-to-end: the reduced exploration (confluence masking, lock
		// regions, τ-chain compression and all) must stay ≈div-equivalent
		// to the full one. Seeds whose state space exceeds the cap are
		// skipped — the validation above already covered their pairs.
		red := art.Machine()
		if red.Empty() {
			continue
		}
		acts, labels := lts.NewAlphabet(), lts.NewAlphabet()
		full, _, err := machine.ExploreWithInfoContext(context.Background(), p, machine.Options{
			Threads: 2, Ops: 2, MaxStates: 50000, Acts: acts, Labels: labels})
		if err != nil {
			continue // faulting or over-budget program: nothing to compare
		}
		reduced, _, err := machine.ExploreWithInfoContext(context.Background(), p, machine.Options{
			Threads: 2, Ops: 2, MaxStates: 50000, Acts: acts, Labels: labels, Reduction: red})
		if err != nil {
			t.Errorf("seed %d: reduced exploration failed where full succeeded: %v", seed, err)
			continue
		}
		checkedEquiv++
		eq, err := bisim.EquivalentContext(context.Background(), full, reduced, bisim.KindDivBranching)
		if err != nil {
			t.Errorf("seed %d: equivalence check: %v", seed, err)
		} else if !eq {
			t.Errorf("seed %d: reduced LTS not ≈div-equivalent to full (%d vs %d states)\n%s",
				seed, reduced.NumStates(), full.NumStates(), art.Format())
		}
	}
	// The test is vacuous if the generator never produces independent
	// pairs; in practice thousands are declared across 200 seeds.
	if totalIndep == 0 {
		t.Fatal("no independent pairs declared across all seeds; generator or analysis defective")
	}
	if checkedEquiv == 0 {
		t.Fatal("no seed reached the full-vs-reduced equivalence check")
	}
	t.Logf("validated %d declared-independent statement pairs across %d seeds; %d full-vs-reduced equivalence checks", totalIndep, seeds, checkedEquiv)
}
