package statestore_test

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/machine"
	"repro/internal/statecodec"
	"repro/internal/statestore"
)

// forbiddenFS is a spill filesystem that fails the test on any call.
type forbiddenFS struct{ t *testing.T }

func (f forbiddenFS) MkdirTemp(parent string) (string, error) {
	f.t.Errorf("MkdirTemp(%q) without a budget", parent)
	return "", os.ErrPermission
}

func (f forbiddenFS) Create(dir, name string) (statecodec.SpillFile, error) {
	f.t.Errorf("Create(%q, %q) without a budget", dir, name)
	return nil, os.ErrPermission
}

func (f forbiddenFS) RemoveAll(dir string) error {
	f.t.Errorf("RemoveAll(%q) without a budget", dir)
	return os.ErrPermission
}

// explore2x2 explores ms-queue 2x2 with the given budget, spill
// directory and backend.
func explore2x2(t *testing.T, budget int64, dir string, b statecodec.Backend) (machine.ExploreStats, error) {
	t.Helper()
	alg, err := algorithms.ByID("ms-queue")
	if err != nil {
		t.Fatal(err)
	}
	prog := alg.Build(algorithms.Config{Threads: 2, Ops: 2})
	_, info, err := machine.ExploreWithInfoContext(context.Background(), prog, machine.Options{
		Threads: 2, Ops: 2, Workers: 2, MemBudget: budget, SpillDir: dir, Backend: b,
	})
	if err != nil {
		return machine.ExploreStats{}, err
	}
	return info.Stats, nil
}

// A zero (unlimited) memory budget means everything stays in RAM, so
// the run must never touch the filesystem: the store never calls its
// spill filesystem, and an exploration on the platform backend creates
// nothing under its spill parent.
func TestZeroBudgetNeverTouchesFilesystem(t *testing.T) {
	s := statecodec.NewStore(statecodec.Config{}, forbiddenFS{t})

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
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, err := explore2x2(t, 0, dir, statestore.Runtime())
	if err != nil {
		t.Fatal(err)
	}
	if st.SpillFiles != 0 || st.TableFlushes != 0 || st.FrontierSpills != 0 {
		t.Fatalf("unlimited-budget exploration reported spilling: %+v", st)
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

// A store on the platform filesystem but without a budget must not
// create its spill directory, however much it holds.
func TestOpenZeroBudgetGuardsSpillDir(t *testing.T) {
	dir := t.TempDir()
	s := open(0, dir)
	defer s.Close()
	for i := 0; i < 5000; i++ {
		s.Number(s.Intern(key(i)), int32(i))
		if err := s.PushFrontier(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.EndLevel(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("zero-budget store created %d filesystem entries", len(ents))
	}
}

// The platform backend honors a positive budget by spilling; the pure
// backend, which has no spill filesystem, refuses one.
func TestBackendPositiveBudgetSpills(t *testing.T) {
	st, err := explore2x2(t, 1, t.TempDir(), statestore.Runtime())
	if err != nil {
		t.Fatal(err)
	}
	if st.SpillFiles == 0 || st.TableFlushes == 0 || st.FrontierSpills == 0 {
		t.Fatalf("1-byte budget did not spill: %+v", st)
	}
	_, err = explore2x2(t, 1, t.TempDir(), statecodec.Backend{})
	if err == nil || !strings.Contains(err.Error(), "Options.MemBudget requires a spill-capable Options.Backend") {
		t.Fatalf("positive budget on the pure backend: %v", err)
	}
}
