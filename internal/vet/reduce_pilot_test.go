package vet_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/machine"
	"repro/internal/vet"
)

// countPilotWalks runs f and returns how many pilot walks it started.
func countPilotWalks(f func()) int {
	walks := 0
	restore := machine.SetPilotObserver(func(*machine.Program) { walks++ })
	defer restore()
	f()
	return walks
}

// TestReductionPilotWalksOnce: Reduce cross-checks every lock region
// and probes for τ-cycles in one pilot walk. spinlock-queue has one
// verified lock, so checking it apart from the probe would take two.
func TestReductionPilotWalksOnce(t *testing.T) {
	p := loadExample(t, "spinlock-queue").Build(algorithms.Config{Threads: 2, Ops: 2})
	var art *vet.ReductionArtifact
	walks := countPilotWalks(func() { art = vet.Reduce(p, vet.Options{Threads: 2, Ops: 2}) })
	if len(art.Locks) != 1 {
		t.Fatalf("locks %v, want one verified lock\n%s", art.Locks, art.Format())
	}
	if walks != 1 {
		t.Fatalf("Reduce ran %d pilot walks, want 1", walks)
	}
}

// TestReductionPilotDemotesSelfLoop: with the static acyclicity pass
// switched off, the goto-self statement of TestReduceDemotesSelfLoop is
// classified confluent, and the pilot's τ-cycle probe alone must demote
// it.
func TestReductionPilotDemotesSelfLoop(t *testing.T) {
	defer vet.DisableStaticAcyclicity()()
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
	if art.Confluent[0] || !art.Demoted[0] {
		t.Fatalf("pilot did not demote the goto-self statement\n%s", art.Format())
	}
}

// TestReductionPilotRefutesBogusRegion: a region claiming every
// statement is refuted by the first pilot state with two running
// threads, and Reduce then classifies and probes again without it. The
// artifact must be the one built without the bogus region.
func TestReductionPilotRefutesBogusRegion(t *testing.T) {
	for _, name := range []string{"spinlock-queue", "msqueue"} {
		p := loadExample(t, name).Build(algorithms.Config{Threads: 2, Ops: 2})
		want, err := json.Marshal(vet.Reduce(p, vet.Options{Threads: 2, Ops: 2}))
		if err != nil {
			t.Fatal(err)
		}
		restore := vet.AddBogusRegion()
		var art *vet.ReductionArtifact
		walks := countPilotWalks(func() { art = vet.Reduce(p, vet.Options{Threads: 2, Ops: 2}) })
		restore()
		got, err := json.Marshal(art)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: artifact with a refuted bogus region differs from the one without\n%s", name, art.Format())
		}
		if walks != 2 {
			t.Errorf("%s: %d pilot walks, want 2 (the check, then the re-probe)", name, walks)
		}
	}
}
