package bbvl

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/lts"
	"repro/internal/machine"
)

// loadExample loads one of the shipped example models.
func loadExample(t *testing.T, name string) *Model {
	t.Helper()
	m, err := LoadFile(filepath.Join("..", "..", "examples", "bbvl", name))
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	return m
}

// registryAlg finds a registry algorithm by ID.
func registryAlg(t *testing.T, id string) *algorithms.Algorithm {
	t.Helper()
	for _, a := range algorithms.All() {
		if a.ID == id {
			return a
		}
	}
	t.Fatalf("registry has no algorithm %q", id)
	return nil
}

// exportBytes explores a program and renders its LTS in both export
// formats; AUT captures the structure and action alphabet, DOT
// additionally captures the τ diagnostic labels, so together they pin
// the LTS byte for byte.
func exportBytes(t *testing.T, p *machine.Program, threads, ops int) (string, string) {
	t.Helper()
	l, _, err := machine.ExploreWithInfoContext(context.Background(), p, machine.Options{Threads: threads, Ops: ops, Workers: 1})
	if err != nil {
		t.Fatalf("explore %s: %v", p.Name, err)
	}
	var aut, dot bytes.Buffer
	if err := lts.WriteAUT(&aut, l); err != nil {
		t.Fatalf("write aut: %v", err)
	}
	if err := lts.WriteDOT(&dot, l, "x"); err != nil {
		t.Fatalf("write dot: %v", err)
	}
	return aut.String(), dot.String()
}

// crossValidate holds a model's compiled program to a byte-identical LTS
// with a reference builder.
func crossValidate(t *testing.T, name string, build, ref func(algorithms.Config) *machine.Program) {
	t.Helper()
	for _, cfg := range []algorithms.Config{
		{Threads: 1, Ops: 2},
		{Threads: 2, Ops: 2},
	} {
		gotAUT, gotDOT := exportBytes(t, build(cfg), cfg.Threads, cfg.Ops)
		wantAUT, wantDOT := exportBytes(t, ref(cfg), cfg.Threads, cfg.Ops)
		if gotAUT != wantAUT {
			t.Errorf("%s %d.%d: AUT differs from hand-coded reference\nmodel:\n%.400s\nreference:\n%.400s",
				name, cfg.Threads, cfg.Ops, gotAUT, wantAUT)
		}
		if gotDOT != wantDOT {
			t.Errorf("%s %d.%d: DOT (τ labels) differs from hand-coded reference\nmodel:\n%.400s\nreference:\n%.400s",
				name, cfg.Threads, cfg.Ops, gotDOT, wantDOT)
		}
	}
}

// TestTreiberByteIdentical cross-validates the BBVL re-encoding of the
// Treiber stack against the hand-coded registry algorithm.
func TestTreiberByteIdentical(t *testing.T) {
	m := loadExample(t, "treiber.bbvl")
	alg := registryAlg(t, "treiber")
	crossValidate(t, "treiber", m.Build, alg.Build)
	crossValidate(t, "treiber spec", m.SpecProgram, alg.Spec)
}

// TestMSQueueByteIdentical cross-validates the MS queue model, its spec
// selection and its abstract (Theorem 5.8) program.
func TestMSQueueByteIdentical(t *testing.T) {
	m := loadExample(t, "msqueue.bbvl")
	alg := registryAlg(t, "ms-queue")
	crossValidate(t, "ms-queue", m.Build, alg.Build)
	crossValidate(t, "ms-queue spec", m.SpecProgram, alg.Spec)
	if !m.HasAbstract {
		t.Fatal("msqueue.bbvl should declare an abstract program")
	}
	crossValidate(t, "ms-queue abstract", m.AbstractProgram, alg.Abstract)
}

// TestSpinLockStackByteIdentical cross-validates the lock-based example
// against the spinlock-stack registry extension.
func TestSpinLockStackByteIdentical(t *testing.T) {
	m := loadExample(t, "spinlock-stack.bbvl")
	if !m.LockBased {
		t.Fatal("spinlock-stack.bbvl should declare lockbased")
	}
	alg := registryAlg(t, "spinlock-stack")
	if !alg.LockBased {
		t.Fatal("registry spinlock-stack should be lock-based")
	}
	crossValidate(t, "spinlock-stack", m.Build, alg.Build)
}

// TestModelAlgorithmShape checks the registry wrapper a model produces.
func TestModelAlgorithmShape(t *testing.T) {
	m := loadExample(t, "msqueue.bbvl")
	a := m.Algorithm()
	if a.ID != "model:ms-queue" {
		t.Errorf("ID = %q, want model:ms-queue", a.ID)
	}
	if a.Abstract == nil {
		t.Error("Abstract builder missing")
	}
	if a.LockBased {
		t.Error("ms-queue model must not be lock-based")
	}
	if p := a.Build(algorithms.Config{Threads: 1, Ops: 1}); p.Validate() != nil {
		t.Errorf("built program invalid: %v", p.Validate())
	}
}
