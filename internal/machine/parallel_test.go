package machine_test

// Worker-count identities of the explorer: the level-synchronized BFS
// must produce an LTS that is identical in every observable detail —
// state count, per-state successor lists (actions, labels, destinations,
// order), alphabet interning and deadlock info — at every worker count,
// for every registered benchmark, and the Table II verdicts must not
// depend on the worker count. One worker, whose expansion runs
// sequentially, is the baseline.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/lts"
	"repro/internal/machine"
	"repro/internal/statestore"
)

// exploreWith runs one benchmark instance at the given worker count with
// fresh alphabets.
func exploreWith(t *testing.T, alg *algorithms.Algorithm, threads, ops, workers int) (*lts.LTS, *machine.Info) {
	t.Helper()
	prog := alg.Build(algorithms.Config{Threads: threads, Ops: ops})
	l, info, err := machine.ExploreWithInfoContext(context.Background(), prog, machine.Options{
		Threads: threads, Ops: ops, Workers: workers,
	})
	if err != nil {
		t.Fatalf("%s (workers=%d): %v", alg.ID, workers, err)
	}
	return l, info
}

// assertSameLTS fails unless a and b are identical: same shape, same
// per-state transition rows in the same order, and alphabets interned to
// the same IDs.
func assertSameLTS(t *testing.T, ctx string, a, b *lts.LTS) {
	t.Helper()
	if a.NumStates() != b.NumStates() {
		t.Fatalf("%s: state count %d != %d", ctx, a.NumStates(), b.NumStates())
	}
	if a.NumTransitions() != b.NumTransitions() {
		t.Fatalf("%s: transition count %d != %d", ctx, a.NumTransitions(), b.NumTransitions())
	}
	if a.Init != b.Init {
		t.Fatalf("%s: init %d != %d", ctx, a.Init, b.Init)
	}
	if a.Acts.Len() != b.Acts.Len() {
		t.Fatalf("%s: alphabet size %d != %d", ctx, a.Acts.Len(), b.Acts.Len())
	}
	for id := 0; id < a.Acts.Len(); id++ {
		if a.Acts.Name(lts.ActionID(id)) != b.Acts.Name(lts.ActionID(id)) {
			t.Fatalf("%s: action %d interned as %q vs %q", ctx, id,
				a.Acts.Name(lts.ActionID(id)), b.Acts.Name(lts.ActionID(id)))
		}
	}
	for s := int32(0); s < int32(a.NumStates()); s++ {
		sa, sb := a.Succ(s), b.Succ(s)
		if len(sa) != len(sb) {
			t.Fatalf("%s: state %d has %d successors vs %d", ctx, s, len(sa), len(sb))
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("%s: state %d transition %d: %+v vs %+v", ctx, s, i, sa[i], sb[i])
			}
		}
	}
}

// TestParallelMatchesSequential checks, for every registered benchmark at
// 2 threads x 2 ops, that exploring with 2 and 4 workers reproduces the
// one-worker LTS exactly (including the deadlock list). The key oracle
// checks every successor keyed without the canonicalizer against the
// full path.
func TestParallelMatchesSequential(t *testing.T) {
	t.Cleanup(machine.EnableKeyOracle())
	for _, alg := range algorithms.All() {
		alg := alg
		t.Run(alg.ID, func(t *testing.T) {
			t.Parallel()
			one, oneInfo := exploreWith(t, alg, 2, 2, 1)
			for _, workers := range []int{2, 4} {
				par, parInfo := exploreWith(t, alg, 2, 2, workers)
				ctx := fmt.Sprintf("%s workers=%d", alg.ID, workers)
				assertSameLTS(t, ctx, one, par)
				if len(oneInfo.Deadlocks) != len(parInfo.Deadlocks) {
					t.Fatalf("%s: %d deadlocks vs %d", ctx, len(oneInfo.Deadlocks), len(parInfo.Deadlocks))
				}
				for i := range oneInfo.Deadlocks {
					if oneInfo.Deadlocks[i] != parInfo.Deadlocks[i] {
						t.Fatalf("%s: deadlock %d is state %d vs %d",
							ctx, i, oneInfo.Deadlocks[i], parInfo.Deadlocks[i])
					}
				}
			}
		})
	}
}

// TestParallelVerdictsMatchSequential checks that the Table II verdicts
// (linearizability for every benchmark, lock-freedom for the lock-free
// ones) are identical at one worker and at four.
func TestParallelVerdictsMatchSequential(t *testing.T) {
	for _, alg := range algorithms.TableII() {
		alg := alg
		t.Run(alg.ID, func(t *testing.T) {
			t.Parallel()
			cfg := algorithms.Config{Threads: 2, Ops: 2}
			oneC := core.Config{Threads: 2, Ops: 2, Workers: 1}
			parC := core.Config{Threads: 2, Ops: 2, Workers: 4}
			oneLin, err := core.NewSession(oneC).CheckLinearizabilityContext(context.Background(), alg.Build(cfg), alg.Spec(cfg))
			if err != nil {
				t.Fatal(err)
			}
			parLin, err := core.NewSession(parC).CheckLinearizabilityContext(context.Background(), alg.Build(cfg), alg.Spec(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if oneLin.Linearizable != parLin.Linearizable ||
				oneLin.ImplStates != parLin.ImplStates ||
				oneLin.ImplQuotientStates != parLin.ImplQuotientStates {
				t.Fatalf("linearizability diverged: one worker %+v, four %+v", oneLin, parLin)
			}
			if alg.LockBased {
				return
			}
			oneLF, err := core.NewSession(oneC).CheckLockFreeAutoContext(context.Background(), alg.Build(cfg))
			if err != nil {
				t.Fatal(err)
			}
			parLF, err := core.NewSession(parC).CheckLockFreeAutoContext(context.Background(), alg.Build(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if oneLF.LockFree != parLF.LockFree || oneLF.ImplStates != parLF.ImplStates {
				t.Fatalf("lock-freedom diverged: one worker %+v, four %+v", oneLF, parLF)
			}
		})
	}
}

// TestParallelStress drives the explorer at worker counts well above the
// core count on a larger instance, so the race detector sees
// heavy shard-table and frontier contention.
func TestParallelStress(t *testing.T) {
	alg, err := algorithms.ByID("ms-queue")
	if err != nil {
		t.Fatal(err)
	}
	threads, ops := 2, 2
	one, _ := exploreWith(t, alg, threads, ops, 1)
	for _, workers := range []int{3, 8, 4 * runtime.GOMAXPROCS(0)} {
		par, _ := exploreWith(t, alg, threads, ops, workers)
		assertSameLTS(t, fmt.Sprintf("ms-queue workers=%d", workers), one, par)
	}
}

// TestParallelStateLimit checks that every worker count reports the same
// budget error when the state count exceeds MaxStates by one, and that a
// budget equal to the state count succeeds. The memory-budget variants pin that MaxStates
// counts interned states, not resident ones: spilling states to disk
// must neither loosen nor tighten the limit.
func TestParallelStateLimit(t *testing.T) {
	alg, err := algorithms.ByID("treiber")
	if err != nil {
		t.Fatal(err)
	}
	prog := alg.Build(algorithms.Config{Threads: 2, Ops: 1})
	exact, _, err := machine.ExploreWithInfoContext(context.Background(), prog, machine.Options{Threads: 2, Ops: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := exact.NumStates()
	for _, workers := range []int{1, 4} {
		for _, memBudget := range []int64{0, 1} {
			opt := machine.Options{Threads: 2, Ops: 1, Workers: workers, MemBudget: memBudget, SpillDir: t.TempDir(), Backend: statestore.Runtime()}
			ctx := fmt.Sprintf("workers=%d membudget=%d", workers, memBudget)
			opt.MaxStates = n
			if _, _, err := machine.ExploreWithInfoContext(context.Background(), prog, opt); err != nil {
				t.Fatalf("%s: budget of exactly %d states should succeed: %v", ctx, n, err)
			}
			opt.MaxStates = n - 1
			_, _, err := machine.ExploreWithInfoContext(context.Background(), prog, opt)
			lim, ok := err.(*machine.StateLimitError)
			if !ok {
				t.Fatalf("%s: expected StateLimitError at budget %d, got %v", ctx, n-1, err)
			}
			if lim.Limit != n-1 {
				t.Fatalf("%s: error reports limit %d, want %d", ctx, lim.Limit, n-1)
			}
		}
	}
}
