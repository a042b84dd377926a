package machine_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	bbvlexamples "repro/examples/bbvl"
	"repro/internal/lts"
	"repro/internal/machine"
	"repro/internal/statestore"
)

// TestKeyOracleExamples explores every example BBVL model at 2×2 with
// the key oracle on — every successor keyed without the canonicalizer
// is checked against the full canonicalize-and-encode path — at one and
// four workers, under a 1 MiB memory budget, and with the τ-confluence
// reduction, and checks that each configuration renders the same .aut
// and keys the same successors the cheap way.
func TestKeyOracleExamples(t *testing.T) {
	t.Cleanup(machine.EnableKeyOracle())
	for _, name := range bbvlexamples.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, red := buildExample(t, name)
			explore := func(opt machine.Options) ([]byte, machine.ExploreStats) {
				t.Helper()
				opt.Threads, opt.Ops = 2, 2
				l, info, err := machine.ExploreWithInfoContext(context.Background(), p, opt)
				if err != nil {
					t.Fatalf("%+v: %v", opt, err)
				}
				var buf bytes.Buffer
				if err := lts.WriteAUT(&buf, l); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes(), info.Stats
			}
			spill := func(opt machine.Options) machine.Options {
				opt.MemBudget, opt.SpillDir, opt.Backend = 1<<20, t.TempDir(), statestore.Runtime()
				return opt
			}
			for _, base := range []machine.Options{{}, {Reduction: red}} {
				want, wantStats := explore(machine.Options{Workers: 1, Reduction: base.Reduction})
				if wantStats.CanonSkipped == 0 || wantStats.KeyPatched == 0 {
					t.Fatalf("reduction=%t: no successor took the fast path: %+v", base.Reduction != nil, wantStats)
				}
				for _, opt := range []machine.Options{
					{Workers: 4, Reduction: base.Reduction},
					spill(machine.Options{Workers: 1, Reduction: base.Reduction}),
					spill(machine.Options{Workers: 4, Reduction: base.Reduction}),
				} {
					ctx := fmt.Sprintf("reduction=%t workers=%d membudget=%d", base.Reduction != nil, opt.Workers, opt.MemBudget)
					got, stats := explore(opt)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: .aut differs from the one-worker in-RAM exploration", ctx)
					}
					if stats.CanonSkipped != wantStats.CanonSkipped || stats.KeyPatched != wantStats.KeyPatched {
						t.Fatalf("%s: %d canonicalizations skipped and %d keys patched, one worker in RAM %d and %d", ctx,
							stats.CanonSkipped, stats.KeyPatched, wantStats.CanonSkipped, wantStats.KeyPatched)
					}
				}
			}
		})
	}
}
