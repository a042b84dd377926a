package machine_test

// Budget-independence of the explorer: the LTS must be byte-identical —
// down to the Aldebaran (.aut) rendering — whichever layout encodes the
// states, however many workers expand the frontier and however small the
// memory budget forces the intern table and frontier to spill, and every
// spill temp file must be gone when exploration ends, however it ends.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/lts"
	"repro/internal/machine"
	"repro/internal/statestore"
	"repro/internal/vet"
)

// autBytes explores one benchmark instance and renders the LTS in .aut
// form, failing the test on any error. narrowed selects the vet interval
// layout; otherwise the explorer uses the structural layout.
func autBytes(t *testing.T, alg *algorithms.Algorithm, opt machine.Options, narrowed bool) []byte {
	t.Helper()
	prog := alg.Build(algorithms.Config{Threads: opt.Threads, Ops: opt.Ops})
	if narrowed {
		opt.Layout = vet.StateLayout(prog, vet.Options{Threads: opt.Threads, Ops: opt.Ops})
	}
	l, _, err := machine.ExploreWithInfoContext(context.Background(), prog, opt)
	if err != nil {
		t.Fatalf("%s (%+v): %v", alg.ID, opt, err)
	}
	var buf bytes.Buffer
	if err := lts.WriteAUT(&buf, l); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPackedMatchesLegacyAUT checks, for every Table II benchmark at
// 2 threads x 2 ops, that the vet-narrowed layout reproduces the
// un-narrowed reference — the structural layout, whose value window is
// the one-byte-per-slot range — byte for byte in .aut form, at one worker
// and at eight.
func TestPackedMatchesLegacyAUT(t *testing.T) {
	for _, alg := range algorithms.TableII() {
		alg := alg
		t.Run(alg.ID, func(t *testing.T) {
			t.Parallel()
			for _, workers := range []int{1, 8} {
				opt := machine.Options{Threads: 2, Ops: 2, Workers: workers}
				structural := autBytes(t, alg, opt, false)
				narrowed := autBytes(t, alg, opt, true)
				if !bytes.Equal(structural, narrowed) {
					t.Fatalf("workers=%d: narrowed .aut differs from structural (%dB vs %dB)",
						workers, len(narrowed), len(structural))
				}
			}
		})
	}
}

// requireEmptyDir fails the test if any entry survives in dir — the
// spill-leak check.
func requireEmptyDir(t *testing.T, dir, when string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("%s: leaked spill artifact %s", when, e.Name())
	}
}

// TestSpillIdenticalLTS forces constant spilling with a 1-byte budget
// and checks the LTS is byte-identical to the unbudgeted run at one and
// eight workers, that spilling actually happened, and that no temp file
// survives the exploration.
func TestSpillIdenticalLTS(t *testing.T) {
	alg, err := algorithms.ByID("ms-queue")
	if err != nil {
		t.Fatal(err)
	}
	prog := alg.Build(algorithms.Config{Threads: 2, Ops: 2})
	ref, _, err := machine.ExploreWithInfoContext(context.Background(), prog, machine.Options{Threads: 2, Ops: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := lts.WriteAUT(&want, ref); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		dir := t.TempDir()
		l, info, err := machine.ExploreWithInfoContext(context.Background(), prog, machine.Options{
			Threads: 2, Ops: 2, Workers: workers, MemBudget: 1, SpillDir: dir,
			Backend: statestore.Runtime(),
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if info.Stats.SpillFiles == 0 {
			t.Fatalf("workers=%d: a 1-byte budget did not spill: %+v", workers, info.Stats)
		}
		var got bytes.Buffer
		if err := lts.WriteAUT(&got, l); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("workers=%d: spilled .aut differs from in-RAM .aut", workers)
		}
		requireEmptyDir(t, dir, fmt.Sprintf("workers=%d after success", workers))
	}
}

// TestSpillCleanupOnCancel checks satellite cleanup contract #1: a
// canceled exploration removes every spill temp file on its way out.
func TestSpillCleanupOnCancel(t *testing.T) {
	alg, err := algorithms.ByID("ms-queue")
	if err != nil {
		t.Fatal(err)
	}
	prog := alg.Build(algorithms.Config{Threads: 3, Ops: 3})
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := machine.ExploreWithInfoContext(ctx, prog, machine.Options{
			Threads: 3, Ops: 3, Workers: 4, MemBudget: 1, SpillDir: dir,
			Backend: statestore.Runtime(),
		})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		var ce *machine.CanceledError
		if err == nil {
			// The instance finished before the cancel landed; the cleanup
			// check below is still meaningful.
			break
		}
		if !errors.As(err, &ce) {
			t.Fatalf("expected CanceledError, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled exploration did not return")
	}
	requireEmptyDir(t, dir, "after cancellation")
}

// TestSpillCleanupOnStateLimit checks cleanup and the MaxStates contract
// under spilling: the budget counts interned states (not resident ones),
// the error reports the configured limit, and no temp file survives.
func TestSpillCleanupOnStateLimit(t *testing.T) {
	alg, err := algorithms.ByID("treiber")
	if err != nil {
		t.Fatal(err)
	}
	prog := alg.Build(algorithms.Config{Threads: 2, Ops: 2})
	dir := t.TempDir()
	_, _, err = machine.ExploreWithInfoContext(context.Background(), prog, machine.Options{
		Threads: 2, Ops: 2, Workers: 4, MaxStates: 500, MemBudget: 1, SpillDir: dir,
		Backend: statestore.Runtime(),
	})
	var lim *machine.StateLimitError
	if !errors.As(err, &lim) {
		t.Fatalf("expected StateLimitError, got %v", err)
	}
	if lim.Limit != 500 {
		t.Fatalf("error reports limit %d, want 500", lim.Limit)
	}
	requireEmptyDir(t, dir, "after state limit")
}

// benchExplore is the shared benchmark body.
func benchExplore(b *testing.B, opt machine.Options) {
	alg, err := algorithms.ByID("ms-queue")
	if err != nil {
		b.Fatal(err)
	}
	prog := alg.Build(algorithms.Config{Threads: opt.Threads, Ops: opt.Ops})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l, info, err := machine.ExploreWithInfoContext(context.Background(), prog, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(info.Stats.BytesPerState(), "B/state")
			_ = l
		}
	}
}

// BenchmarkExplorePacked is the CI smoke benchmark for the state codec.
func BenchmarkExplorePacked(b *testing.B) {
	benchExplore(b, machine.Options{Threads: 2, Ops: 2})
}

func BenchmarkExplorePackedSpill(b *testing.B) {
	benchExplore(b, machine.Options{Threads: 2, Ops: 2, MemBudget: 1, SpillDir: b.TempDir(), Backend: statestore.Runtime()})
}
