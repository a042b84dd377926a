package vet_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	bbvlexamples "repro/examples/bbvl"
	"repro/internal/algorithms"
	"repro/internal/machine"
)

// tauCycleDigest pins the SHA-256 of json.Marshal(machine.FindTauCycles(...))
// for one program at one instance size, with the number of cycles found.
type tauCycleDigest struct {
	program      string // registry ID, or "example/" + model name
	threads, ops int
	cycles       int
	sha          string
}

// tauCycleDigests was generated while the probe was still a memoized
// depth-first solo walk from every pilot state, before it read the
// τ-cycles off the walk's own edges as per-thread SCCs.
var tauCycleDigests = []tauCycleDigest{
	{"treiber", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"treiber", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"treiber", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"treiber-hp", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"treiber-hp", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"treiber-hp", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"treiber-hp-fu", 2, 2, 1, "0f80050c3b8b694a9fa5f25ce4a417f6c85f61a8972f6900d11ed785bf7d247d"},
	{"treiber-hp-fu", 2, 3, 1, "0f80050c3b8b694a9fa5f25ce4a417f6c85f61a8972f6900d11ed785bf7d247d"},
	{"treiber-hp-fu", 3, 2, 1, "0f80050c3b8b694a9fa5f25ce4a417f6c85f61a8972f6900d11ed785bf7d247d"},
	{"ms-queue", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"ms-queue", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"ms-queue", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"dglm-queue", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"dglm-queue", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"dglm-queue", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"ccas", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"ccas", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"ccas", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"rdcss", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"rdcss", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"rdcss", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"newcas", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"newcas", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"newcas", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"hm-list-buggy", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"hm-list-buggy", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"hm-list-buggy", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"hm-list", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"hm-list", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"hm-list", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"hw-queue", 2, 2, 1, "9d1ad05a5bf32310cec27d84ff42a2e018ed60780ca28f3b3d819be52110221d"},
	{"hw-queue", 2, 3, 1, "9d1ad05a5bf32310cec27d84ff42a2e018ed60780ca28f3b3d819be52110221d"},
	{"hw-queue", 3, 2, 1, "9d1ad05a5bf32310cec27d84ff42a2e018ed60780ca28f3b3d819be52110221d"},
	{"hsy-stack", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"hsy-stack", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"hsy-stack", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"lazy-list", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"lazy-list", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"lazy-list", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"optimistic-list", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"optimistic-list", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"optimistic-list", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"fine-grained-list", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"fine-grained-list", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"fine-grained-list", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"treiber-unsafe-free", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"treiber-unsafe-free", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"treiber-unsafe-free", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"spinlock-stack", 2, 2, 2, "2f72455c6d79681d5415aa62c21e0b6337580f812ac2c67b0f9d8908f3b66de9"},
	{"spinlock-stack", 2, 3, 2, "2f72455c6d79681d5415aa62c21e0b6337580f812ac2c67b0f9d8908f3b66de9"},
	{"spinlock-stack", 3, 2, 2, "2f72455c6d79681d5415aa62c21e0b6337580f812ac2c67b0f9d8908f3b66de9"},
	{"two-lock-queue", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"two-lock-queue", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"two-lock-queue", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"coarse-list", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"coarse-list", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"coarse-list", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"harris-list", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"harris-list", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"harris-list", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"treiber-versioned", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"treiber-versioned", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"treiber-versioned", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/coarse-list", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/coarse-list", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/coarse-list", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/dglm-queue", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/dglm-queue", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/dglm-queue", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/fine-grained-list", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/fine-grained-list", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/fine-grained-list", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/lazy-list", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/lazy-list", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/lazy-list", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/msqueue", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/msqueue", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/msqueue", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/optimistic-list", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/optimistic-list", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/optimistic-list", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/spinlock-queue", 2, 2, 2, "469ea1c3576817458383749bcecff32e8c4f8334958aa459264828117b16f9bd"},
	{"example/spinlock-queue", 2, 3, 2, "469ea1c3576817458383749bcecff32e8c4f8334958aa459264828117b16f9bd"},
	{"example/spinlock-queue", 3, 2, 2, "469ea1c3576817458383749bcecff32e8c4f8334958aa459264828117b16f9bd"},
	{"example/spinlock-stack", 2, 2, 2, "2f72455c6d79681d5415aa62c21e0b6337580f812ac2c67b0f9d8908f3b66de9"},
	{"example/spinlock-stack", 2, 3, 2, "2f72455c6d79681d5415aa62c21e0b6337580f812ac2c67b0f9d8908f3b66de9"},
	{"example/spinlock-stack", 3, 2, 2, "2f72455c6d79681d5415aa62c21e0b6337580f812ac2c67b0f9d8908f3b66de9"},
	{"example/treiber", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/treiber", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/treiber", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/two-lock-queue", 2, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/two-lock-queue", 2, 3, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	{"example/two-lock-queue", 3, 2, 0, "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
}

// TestTauCycleDigests holds the unrestricted τ-cycle probe (the vet
// taucycle analyzer's FindTauCycles) on every registry row and every
// example model at 2×2, 2×3 and 3×2 to its pinned digest. A row missing
// from the table is reported in table syntax, so regenerating the table
// means emptying it and copying the failure output.
func TestTauCycleDigests(t *testing.T) {
	want := make(map[string]tauCycleDigest, len(tauCycleDigests))
	for _, d := range tauCycleDigests {
		want[fmt.Sprintf("%s/%dx%d", d.program, d.threads, d.ops)] = d
	}
	type program struct {
		name  string
		build func(algorithms.Config) *machine.Program
	}
	var progs []program
	for _, a := range algorithms.All() {
		progs = append(progs, program{a.ID, a.Build})
	}
	for _, name := range bbvlexamples.Names() {
		progs = append(progs, program{"example/" + name, loadExample(t, name).Build})
	}
	var missing strings.Builder
	for _, pr := range progs {
		for _, cfg := range []algorithms.Config{{Threads: 2, Ops: 2}, {Threads: 2, Ops: 3}, {Threads: 3, Ops: 2}} {
			key := fmt.Sprintf("%s/%dx%d", pr.name, cfg.Threads, cfg.Ops)
			cycles := machine.FindTauCycles(pr.build(cfg), machine.PilotOptions{Threads: cfg.Threads, Ops: cfg.Ops})
			js, err := json.Marshal(cycles)
			if err != nil {
				t.Fatalf("%s: marshal: %v", key, err)
			}
			sum := sha256.Sum256(js)
			got := hex.EncodeToString(sum[:])
			w, ok := want[key]
			if !ok {
				fmt.Fprintf(&missing, "\t{%q, %d, %d, %d, %q},\n", pr.name, cfg.Threads, cfg.Ops, len(cycles), got)
				continue
			}
			delete(want, key)
			if got != w.sha || len(cycles) != w.cycles {
				t.Errorf("%s: %d cycles with digest %s, want %d with %s\n%s", key, len(cycles), got, w.cycles, w.sha, js)
			}
		}
	}
	if missing.Len() > 0 {
		t.Errorf("programs with no pinned digest:\n%s", missing.String())
	}
	for key := range want {
		t.Errorf("%s: pinned digest matches no program", key)
	}
}
