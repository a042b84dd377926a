package machine

import (
	"context"
	"testing"

	"repro/internal/lts"
)

// TestDecodeKeysAllocFree pins the decode side of the BFS hot path:
// interned state keys are stored as []byte, so popping a state off the
// frontier (decode of its key) must not allocate. The old string-keyed
// table converted every key with []byte(key) — one copy per BFS pop.
func TestDecodeKeysAllocFree(t *testing.T) {
	p := counterProgram()
	opt := Options{Threads: 2, Ops: 2, Workers: 1}
	e := &explorer{
		ctx:  context.Background(),
		prog: p,
		opt:  opt,
		cdc:  newCodec(p, opt),
		ai:   newActionInterner(p, lts.NewAlphabet(), lts.NewAlphabet()),
		ids:  make(map[string]int32),
	}
	if _, _, err := e.run(DefaultMaxStates); err != nil {
		t.Fatal(err)
	}
	if len(e.keys) < 10 {
		t.Fatalf("expected a non-trivial state space, got %d states", len(e.keys))
	}
	cur := newScratchState(p, 2)
	allocs := testing.AllocsPerRun(10, func() {
		for _, k := range e.keys {
			e.cdc.decode(k, cur)
		}
	})
	if allocs != 0 {
		t.Fatalf("decoding all %d interned keys allocated %.1f times per sweep; want 0", len(e.keys), allocs)
	}
}
