package statestore_test

import (
	"os"
	"testing"

	"repro/internal/statecodec"
	"repro/internal/statestore"
)

// A zero (unlimited) memory budget means everything stays in RAM, so
// the run must never touch the filesystem: no spill directory, no temp
// files. The Backend opener routes such configurations to the pure
// in-memory store, and the spilling store itself refuses to create its
// directory without a budget — both halves of the guarantee are pinned
// here.
func TestZeroBudgetNeverTouchesFilesystem(t *testing.T) {
	dir := t.TempDir()
	s, err := statestore.Backend(statecodec.Config{MemBudget: 0, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Drive a realistic workload: intern and push two full levels.
	for i := 0; i < 2000; i++ {
		r := s.Intern(key(i))
		if r.ID != -1 {
			t.Fatalf("key %d: fresh intern returned %+v, not an unnumbered entry", i, r)
		}
		s.Number(r, int32(i))
		if err := s.PushFrontier(key(i)); err != nil {
			t.Fatal(err)
		}
		if i == 999 {
			if _, err := s.NextLevel(); err != nil {
				t.Fatal(err)
			}
			if err := s.EndLevel(); err != nil {
				t.Fatal(err)
			}
		}
	}
	lvl, err := s.NextLevel()
	if err != nil {
		t.Fatal(err)
	}
	if lvl.Len() != 1000 {
		t.Fatalf("level length %d, want 1000", lvl.Len())
	}
	if err := s.EndLevel(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Spilled() || st.FrontierSpills != 0 || st.TableFlushes != 0 {
		t.Fatalf("unlimited-budget run reported spilling: %+v", st)
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("unlimited-budget run created %d entries under its spill parent (first: %s)",
			len(ents), ents[0].Name())
	}
}

// The spilling store itself must refuse to create a spill directory
// when opened without a budget; a buggy spill decision surfaces as a
// loud error, never as a stray os.MkdirTemp.
func TestOpenZeroBudgetGuardsSpillDir(t *testing.T) {
	dir := t.TempDir()
	s, err := statestore.Open(statestore.Config{MemBudget: 0, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5000; i++ {
		s.Intern(key(i))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("zero-budget Open created %d filesystem entries", len(ents))
	}
}

// Backend with a positive budget must still hand out the spilling
// store — the in-memory store cannot honor a budget.
func TestBackendPositiveBudgetSpills(t *testing.T) {
	dir := t.TempDir()
	s, err := statestore.Backend(statecodec.Config{MemBudget: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 2000; i++ {
		s.Number(s.Intern(key(i)), int32(i))
	}
	if err := s.EndLevel(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); !st.Spilled() {
		t.Fatalf("1-byte budget did not spill: %+v", st)
	}
}
