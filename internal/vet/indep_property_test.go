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
// branches with falling paths, and goto cycles. Lock seeds add a spin
// lock around a critical region of every method, so the lock-region
// masking of the confluence classification is replayed too.

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
	// targets, when non-nil, are the statements a goto may jump to;
	// otherwise any statement of the method.
	targets []int
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
	if g.targets != nil {
		return machine.Instr{Op: machine.IRGoto, Target: g.targets[g.rng.Intn(len(g.targets))]}
	}
	return machine.Instr{Op: machine.IRGoto, Target: g.rng.Intn(g.nstmts)}
}

// statement builds one random statement: up to two body instructions,
// then (mostly) a terminator, with extra spliced in between.
func (g *progGen) statement(label string, extra ...machine.Instr) machine.Stmt {
	var seq []machine.Instr
	for k := g.rng.Intn(3); k > 0; k-- {
		if in, ok := g.bodyInstr(); ok {
			seq = append(seq, in)
		}
	}
	seq = append(seq, extra...)
	if g.rng.Intn(10) > 0 { // 10%: no terminator — every path blocks
		seq = append(seq, g.terminator()...)
	}
	if seq == nil {
		// A statement with no instructions blocks forever; keep its IR
		// non-nil so the program still counts as compiled.
		seq = []machine.Instr{}
	}
	return irStmt(label, seq)
}

// lockedBody builds a method body guarded by the spin lock global l:
// statement 0 is the acquire `if cas(L, 0, self) { goto 1 } else {
// goto 0 }`, statements 1..r are the critical region, whose gotos only
// go forward inside it, and statement r ends with the release `L = 0`.
// Gotos from the release and from the statement after it, if any, go
// back to the acquire or to that statement, and in a quarter of the
// methods also to one region statement.
func (g *progGen) lockedBody(mi, l int) []machine.Stmt {
	r := 2 + g.rng.Intn(2)
	g.nstmts = r + 1 + g.rng.Intn(2)
	label := func(si int) string { return fmt.Sprintf("M%dS%d", mi, si) }
	body := []machine.Stmt{irStmt(label(0), []machine.Instr{{
		Op: machine.IRIfCas, LHS: globalLoc(l), A: lit(0), B: machine.Operand{Kind: machine.OperandSelf},
		Then: []machine.Instr{{Op: machine.IRGoto, Target: 1}},
		Else: []machine.Instr{{Op: machine.IRGoto, Target: 0}},
	}})}
	for si := 1; si < r; si++ {
		g.targets = nil
		for tgt := si + 1; tgt <= r; tgt++ {
			g.targets = append(g.targets, tgt)
		}
		body = append(body, g.statement(label(si)))
	}
	g.targets = []int{0}
	for si := r + 1; si < g.nstmts; si++ {
		g.targets = append(g.targets, si)
	}
	if g.rng.Intn(4) == 0 {
		// A jump back into the region enters it unheld: the lock-region
		// analysis must drop the statements it reaches from the region,
		// and reject L if they include the release.
		g.targets = append(g.targets, 1+g.rng.Intn(r))
	}
	body = append(body, g.statement(label(r), machine.Instr{Op: machine.IRAssign, LHS: globalLoc(l), A: lit(0)}))
	for si := r + 1; si < g.nstmts; si++ {
		body = append(body, g.statement(label(si)))
	}
	g.targets = nil
	return body
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

// genProgram builds the random program for one seed. With lock set the
// program has one more value global, L, which only the acquires and
// releases of lockedBody write, and no pointer variables, so that its
// threads seldom fault before they contend for the lock.
func genProgram(seed int64, lock bool) *machine.Program {
	rng := rand.New(rand.NewSource(seed))
	g := &progGen{rng: rng}

	nglobals := 1 + rng.Intn(3)
	names := make([]string, nglobals)
	kinds := make([]machine.VarKind, nglobals)
	for i := range names {
		names[i] = fmt.Sprintf("G%d", i)
		if rng.Intn(3) == 0 && !lock {
			kinds[i] = machine.KPtr
			g.ptrGlobals = append(g.ptrGlobals, i)
		} else {
			kinds[i] = machine.KVal
			g.valGlobals = append(g.valGlobals, i)
		}
	}
	if lock {
		names = append(names, "L")
		kinds = append(kinds, machine.KVal)
	}
	nlocals := 2 + rng.Intn(2)
	localKinds := make([]machine.VarKind, nlocals)
	for i := range localKinds {
		if rng.Intn(2) == 0 && !lock {
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
		var body []machine.Stmt
		if lock {
			body = g.lockedBody(mi, nglobals)
		} else {
			g.nstmts = 2 + rng.Intn(3)
			for si := 0; si < g.nstmts; si++ {
				body = append(body, g.statement(fmt.Sprintf("M%dS%d", mi, si)))
			}
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

// TestIndependencePropertyRandomized: 200 seeds, and 60 lock seeds,
// every pair the confluence classification trusts (declared independent,
// or held under one inferred lock region) dynamically validated over the
// full pilot state space, and every reduced exploration compared with the
// full one under ≈div. The explorations run with the key oracle on, so
// every random program also checks the explorer's incremental successor
// keys.
func TestIndependencePropertyRandomized(t *testing.T) {
	t.Cleanup(machine.EnableKeyOracle())
	seeds, lockSeeds := 200, 60
	if testing.Short() {
		seeds, lockSeeds = 40, 20
	}
	totalIndep, checkedEquiv, lockedEquiv := 0, 0, 0
	for k := 0; k < seeds+lockSeeds; k++ {
		seed, lock := int64(k), k >= seeds
		if lock {
			seed = int64(200 + k - seeds) // lock seeds follow seeds 0–199
		}
		p := genProgram(seed, lock)
		art := vet.Reduce(p, vet.Options{Threads: 2, Ops: 2})
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
		verr := machine.ValidateIndependence(p, machine.PilotOptions{Threads: 2, Ops: 2, MaxStates: 20000}, vet.TrustedOracle(p, art, false))
		if verr != nil {
			t.Errorf("seed %d: %v\n%s", seed, verr, art.Format())
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
		} else if lock && len(art.Locks) > 0 && verr == nil {
			lockedEquiv++
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
	// Region masking is covered only if lock seeds infer their lock and
	// reach both checks.
	if lockedEquiv*10 < lockSeeds {
		t.Fatalf("only %d of %d lock seeds inferred a region and passed both checks; want at least a tenth", lockedEquiv, lockSeeds)
	}
	t.Logf("validated %d declared-independent statement pairs across %d seeds; %d full-vs-reduced equivalence checks, %d of them on lock seeds with an inferred region", totalIndep, seeds+lockSeeds, checkedEquiv, lockedEquiv)
}
