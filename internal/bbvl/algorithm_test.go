package bbvl

import (
	"path/filepath"
	"testing"
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
	if p := a.Build(Config{Threads: 1, Ops: 1}); p.Validate() != nil {
		t.Errorf("built program invalid: %v", p.Validate())
	}
	if !loadExample(t, "spinlock-stack.bbvl").Algorithm().LockBased {
		t.Error("spinlock-stack.bbvl declares lockbased; its algorithm must be lock-based")
	}
}
