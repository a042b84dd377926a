package core_test

import (
	"context"
	"testing"

	bbvlexamples "repro/examples/bbvl"
	"repro/internal/algorithms"
	"repro/internal/api"
	"repro/internal/bbvl"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/statecodec"
)

// TestSessionNarrowsWithoutProvider pins that core owns the layout
// policy: a bare Config session packs a BBVL model's states with vet's
// narrowed layout, reporting the bytes per state the api runner reports,
// fewer than the structural layout's.
func TestSessionNarrowsWithoutProvider(t *testing.T) {
	src, err := bbvlexamples.Source("msqueue")
	if err != nil {
		t.Fatal(err)
	}
	m, err := bbvl.Load("msqueue.bbvl", src)
	if err != nil {
		t.Fatal(err)
	}
	alg := m.Algorithm()
	p := alg.Build(algorithms.Config{Threads: 2, Ops: 2})
	_, info, err := core.NewSession(core.Config{Threads: 2, Ops: 2}).ExploreWithInfoContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	got := info.Stats.BytesPerState()

	res, err := api.RunBackend(context.Background(), api.JobSpec{
		Kind: api.KindExplore, ModelSource: string(src), Threads: 2, Ops: 2,
	}, statecodec.Backend{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Stages[0].BytesPerState; res.Stages[0].Stage != core.StageExplore || got != want {
		t.Fatalf("bare session packs %.2f B/state, api.RunBackend %.2f (stage %+v)", got, want, res.Stages[0])
	}

	_, structural, err := machine.ExploreWithInfoContext(context.Background(), p, machine.Options{Threads: 2, Ops: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got >= structural.Stats.BytesPerState() {
		t.Errorf("bare session packs %.2f B/state, not below the structural layout's %.2f", got, structural.Stats.BytesPerState())
	}
}
