package vet_test

import (
	"fmt"
	"testing"

	bbvlexamples "repro/examples/bbvl"
	"repro/internal/algorithms"
	"repro/internal/bbvl"
	"repro/internal/machine"
	"repro/internal/vet"
)

// loadExample compiles one embedded BBVL example model.
func loadExample(t testing.TB, name string) *bbvl.Model {
	t.Helper()
	src, err := bbvlexamples.Source(name)
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	m, err := bbvl.Load(bbvlexamples.Filename(name), src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return m
}

// TestReduceExampleConfluence pins the confluence classification on the
// example models. The confluent statements are the ones whose shared
// effects are provably private (freshly allocated cells), read-only on
// slots nothing writes, or confined to a verified lock's critical
// region (never co-enabled with their conflicts): treiber's node
// preparation and next-read, ms-queue's node preparation and value
// read, and the spinlock stack's entire critical sections except the
// releases (which genuinely race with the spinning acquires).
func TestReduceExampleConfluence(t *testing.T) {
	cases := []struct {
		model string
		want  map[string]bool
	}{
		{"treiber", map[string]bool{"P1": true, "P5": true}},
		{"msqueue", map[string]bool{"L1": true, "L26": true}},
		{"spinlock-stack", map[string]bool{
			"S1": true, "S3": true, "S4": true, "S7": true, "S9": true, "S10": true}},
		{"spinlock-queue", map[string]bool{
			"Q1": true, "Q3": true, "Q4": true, "Q7": true, "Q9": true}},
		// Blocking global locks: the regions hold, the releases race.
		{"two-lock-queue", map[string]bool{"E1": true, "E4": true, "D2": true, "D4": true}},
		// The traversal loop W3-W4 loses only its head W3.
		{"coarse-list", map[string]bool{"W2": true, "W4": true, "F1": true}},
		// Reads of Head and of keys nothing writes; the optimistic
		// Contains' key test C1 reads a held node.
		{"lazy-list", map[string]bool{"T1": true, "T3": true, "C1": true}},
		{"optimistic-list", map[string]bool{"T1": true, "T3": true, "V1": true, "C1": true}},
		// Hand over hand, every access between lock operations is held.
		{"fine-grained-list", map[string]bool{"G2": true, "W1": true}},
	}
	for _, tc := range cases {
		m := loadExample(t, tc.model)
		p := m.Build(algorithms.Config{Threads: 2, Ops: 2})
		art := vet.Reduce(p, vet.Options{Threads: 2, Ops: 2})
		if art == nil {
			t.Fatalf("%s: Reduce returned nil for an IR program", tc.model)
		}
		got := map[string]bool{}
		for i, s := range art.Stmts {
			if art.Confluent[i] {
				got[s.Label] = true
			}
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: confluent set %v, want %v\n%s", tc.model, got, tc.want, art.Format())
			continue
		}
		for l := range tc.want {
			if !got[l] {
				t.Errorf("%s: statement %s not confluent\n%s", tc.model, l, art.Format())
			}
		}
		// The packed artifact must fit the program it came from.
		if red := art.Machine(); !red.Matches(p) {
			t.Errorf("%s: Machine() artifact does not match program shape", tc.model)
		} else if red.NumConfluent() != art.NumConfluent() {
			t.Errorf("%s: Machine() lost statements: %d != %d", tc.model, red.NumConfluent(), art.NumConfluent())
		}
		// The independence matrix must be symmetric and reflexively
		// consistent with the oracle view.
		oracle := art.Oracle()
		for i, si := range art.Stmts {
			for j, sj := range art.Stmts {
				if art.Independent[i][j] != art.Independent[j][i] {
					t.Fatalf("%s: asymmetric independence %s/%s", tc.model, si.Label, sj.Label)
				}
				if oracle(si.MethodIndex, si.PC, sj.MethodIndex, sj.PC) != art.Independent[i][j] {
					t.Fatalf("%s: oracle disagrees with matrix at %s/%s", tc.model, si.Label, sj.Label)
				}
			}
		}
	}
}

// oracleShapes are the instance sizes the dynamic oracles replay every
// example model at.
var oracleShapes = []algorithms.Config{{Threads: 2, Ops: 2}, {Threads: 2, Ops: 3}, {Threads: 3, Ops: 2}}

// TestReduceExamplesValidateDynamically replays the relation the
// confluence classification trusts — every declared independence, and
// every pair of statements held under one inferred lock region — through
// the dynamic two-order commutation check over the pilot state space of
// every example model. A region pair is checked wherever two threads
// sit inside the region at once, which the static mutual-exclusion
// proof that Reduce trusts says never happens.
func TestReduceExamplesValidateDynamically(t *testing.T) {
	for _, name := range bbvlexamples.Names() {
		m := loadExample(t, name)
		for _, cfg := range oracleShapes {
			p := m.Build(cfg)
			art := vet.Reduce(p, vet.Options{Threads: cfg.Threads, Ops: cfg.Ops})
			if art == nil {
				t.Fatalf("%s: Reduce returned nil", name)
			}
			opt := machine.PilotOptions{Threads: cfg.Threads, Ops: cfg.Ops}
			if err := machine.ValidateIndependence(p, opt, vet.TrustedOracle(p, art, false)); err != nil {
				t.Errorf("%s %dx%d: %v\n%s", name, cfg.Threads, cfg.Ops, err, art.Format())
			}
		}
	}
}

// TestRegionOracleRejectsBogusRegion: the oracle of
// TestReduceExamplesValidateDynamically is not vacuous. A region that
// claims every statement masks conflicts two threads can race on, and
// the oracle must refute it on every example model and size.
func TestRegionOracleRejectsBogusRegion(t *testing.T) {
	for _, name := range bbvlexamples.Names() {
		m := loadExample(t, name)
		for _, cfg := range oracleShapes {
			p := m.Build(cfg)
			art := vet.Reduce(p, vet.Options{Threads: cfg.Threads, Ops: cfg.Ops})
			opt := machine.PilotOptions{Threads: cfg.Threads, Ops: cfg.Ops}
			if machine.ValidateIndependence(p, opt, vet.TrustedOracle(p, art, true)) == nil {
				t.Errorf("%s %dx%d: the oracle accepted a region claiming every statement", name, cfg.Threads, cfg.Ops)
			}
		}
	}
}

// TestReduceRegistryProgramsNil: registry programs still written as Go
// closures carry no IR, so no reduction is licensed.
func TestReduceRegistryProgramsNil(t *testing.T) {
	alg, err := algorithms.ByID("treiber-hp")
	if err != nil {
		t.Fatal(err)
	}
	p := alg.Build(algorithms.Config{Threads: 2, Ops: 2})
	if art := vet.Reduce(p, vet.Options{Threads: 2, Ops: 2}); art != nil {
		t.Fatalf("Reduce on IR-less program returned %v, want nil", art)
	}
	var nilArt *vet.ReductionArtifact
	if nilArt.Machine() != nil || nilArt.NumConfluent() != 0 {
		t.Fatalf("nil artifact must pack to nil")
	}
}

// irStmt builds a statement whose Exec interprets the given IR.
func irStmt(label string, seq []machine.Instr) machine.Stmt {
	return machine.Stmt{
		Label: label,
		Exec:  func(c *machine.Ctx) { machine.RunIR(c, seq) },
		IR:    seq,
	}
}

// TestReduceDemotesSelfLoop: a goto-self statement with an empty
// footprint passes every local confluence condition but would let the
// reduced exploration spin a single thread forever; the acyclicity
// demotion must reject it.
func TestReduceDemotesSelfLoop(t *testing.T) {
	p := &machine.Program{
		Name:    "selfloop",
		Globals: machine.Schema{Names: []string{"G"}, Kinds: []machine.VarKind{machine.KVal}},
		NLocals: 1,
		Methods: []machine.Method{{
			Name: "Spin",
			Body: []machine.Stmt{
				irStmt("T0", []machine.Instr{{Op: machine.IRGoto, Target: 0}}),
			},
		}},
	}
	art := vet.Reduce(p, vet.Options{Threads: 2, Ops: 2})
	if art == nil {
		t.Fatal("Reduce returned nil")
	}
	if art.Confluent[0] {
		t.Fatalf("goto-self statement classified confluent\n%s", art.Format())
	}
	if !art.Demoted[0] {
		t.Fatalf("goto-self statement not marked demoted\n%s", art.Format())
	}
}

// TestReduceNonTotalNotConfluent: a statement with a falling-through
// path emits no outcome on that path (it blocks), so prioritizing it
// could manufacture deadlocks; it must not be confluent even with an
// empty footprint.
func TestReduceNonTotalNotConfluent(t *testing.T) {
	lit := func(v int32) machine.Operand { return machine.Operand{Kind: machine.OperandLit, Lit: v} }
	local0 := machine.Loc{Kind: machine.LocLocal, Index: 0, Name: "l0"}
	p := &machine.Program{
		Name:    "nontotal",
		Globals: machine.Schema{Names: []string{"G"}, Kinds: []machine.VarKind{machine.KVal}},
		NLocals: 1,
		Methods: []machine.Method{{
			Name: "M",
			Body: []machine.Stmt{
				// T0: if l0 == 0 { goto T1 }   (else falls off the end: blocked)
				irStmt("T0", []machine.Instr{{
					Op: machine.IRIfCmp, A: machine.Operand{Kind: machine.OperandLoc, Loc: local0}, B: lit(0),
					Then: []machine.Instr{{Op: machine.IRGoto, Target: 1}},
				}}),
				irStmt("T1", []machine.Instr{{Op: machine.IRReturn, A: lit(0)}}),
			},
		}},
	}
	art := vet.Reduce(p, vet.Options{Threads: 2, Ops: 2})
	if art == nil {
		t.Fatal("Reduce returned nil")
	}
	if art.Confluent[0] {
		t.Fatalf("non-total statement classified confluent\n%s", art.Format())
	}
	if !art.Confluent[1] {
		t.Fatalf("trivial return statement should be confluent\n%s", art.Format())
	}
}

// TestHeldAccessesNeedOwnership: a field access is held only through a
// local whose node the thread provably holds for the whole statement.
// Unlocking a copy of the local releases the node it shares.
func TestHeldAccessesNeedOwnership(t *testing.T) {
	m, err := bbvl.Load("held.bbvl", []byte(`model held
node cell { val: val  next: ptr }
globals { Top: ptr }
spec stack
lockbased
init { Top = alloc(cell) }
method Push(v: vals) {
  var a: ptr
  var b: ptr
  P1: a = Top; lock(a); goto P2
  P2: a.val = v; goto P3
  P3: b = a; unlock(b); goto P4
  P4: a.val = v; return ok
}
method Pop() { P5: return empty }
`))
	if err != nil {
		t.Fatal(err)
	}
	art := vet.Reduce(m.Build(algorithms.Config{Threads: 2, Ops: 2}), vet.Options{Threads: 2, Ops: 2})
	want := map[string]string{"P2": "held field Val", "P4": "field Val"}
	for i, s := range art.Stmts {
		if w, ok := want[s.Label]; ok && (len(art.Writes[i]) != 1 || art.Writes[i][0] != w) {
			t.Errorf("%s writes %v, want [%s]\n%s", s.Label, art.Writes[i], w, art.Format())
		}
	}
}

// BenchmarkReduce times the reduction analysis on the model shapes of
// bbvbench's bbvl-reduction workload.
func BenchmarkReduce(b *testing.B) {
	for _, sh := range []struct {
		model        string
		threads, ops int
	}{
		{"spinlock-stack", 2, 3}, {"spinlock-stack", 3, 2},
		{"spinlock-queue", 2, 3}, {"spinlock-queue", 3, 2},
		{"treiber", 2, 3}, {"msqueue", 2, 3},
	} {
		b.Run(fmt.Sprintf("%s-%dx%d", sh.model, sh.threads, sh.ops), func(b *testing.B) {
			p := loadExample(b, sh.model).Build(algorithms.Config{Threads: sh.threads, Ops: sh.ops})
			for i := 0; i < b.N; i++ {
				vet.Reduce(p, vet.Options{Threads: sh.threads, Ops: sh.ops})
			}
		})
	}
}
