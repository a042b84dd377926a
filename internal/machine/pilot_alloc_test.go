package machine_test

import (
	"testing"

	bbvlexamples "repro/examples/bbvl"
	"repro/internal/algorithms"
	"repro/internal/bbvl"
	"repro/internal/machine"
)

// TestPilotWalkAllocs pins the allocation profile of the pilot walk: its
// states live in one arena-backed intern table and its recorded τ-steps
// in one CSR, so a FindTauCycles call allocates a number of times that
// grows with the logarithm of the state count, not with the count. The
// msqueue 2×3 pilot fills its default 60,000-state bound.
func TestPilotWalkAllocs(t *testing.T) {
	src, err := bbvlexamples.Source("msqueue")
	if err != nil {
		t.Fatal(err)
	}
	m, err := bbvl.Load(bbvlexamples.Filename("msqueue"), src)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Build(algorithms.Config{Threads: 2, Ops: 3})
	allocs := testing.AllocsPerRun(3, func() {
		machine.FindTauCycles(p, machine.PilotOptions{Threads: 2, Ops: 3})
	})
	if allocs >= 2000 {
		t.Fatalf("FindTauCycles on msqueue 2×3 allocated %.0f times per call; want under 2000", allocs)
	}
}
