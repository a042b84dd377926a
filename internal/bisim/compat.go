// Compatibility names for callers that predate the single branching
// refiner. Branching and ≈div partitions are computed by the splitter
// only; a Refiner argument selects nothing.
//
// Its only caller is the benchmark harness's trace composer
// (cmd/bbvbench/trace.go), which is only changed together with the
// benchmark; api.Validate checks the deprecated "refiner" field of
// stored job specs itself. Delete this file when a benchmark change
// migrates trace.go to BranchingContext and
// DivergenceSensitiveBranchingContext.

package bisim

import (
	"context"
	"fmt"

	"repro/internal/lts"
)

// Refiner is a refiner name accepted for compatibility. It selects
// nothing: every value computes the same partition with the splitter.
type Refiner int

// ParseRefiner accepts the refiner names of old job specs ("", "auto",
// "signature" and "splitter") and rejects anything else.
func ParseRefiner(s string) (Refiner, error) {
	switch s {
	case "", "auto", "signature", "splitter":
		return 0, nil
	default:
		return 0, fmt.Errorf("bisim: unknown refiner %q (want auto, signature or splitter)", s)
	}
}

// BranchingWithRefiner is BranchingContext; the refiner is ignored.
func BranchingWithRefiner(ctx context.Context, l *lts.LTS, _ Refiner) (*Partition, error) {
	return BranchingContext(ctx, l)
}

// DivergenceSensitiveBranchingWithRefiner is
// DivergenceSensitiveBranchingContext; the refiner is ignored.
func DivergenceSensitiveBranchingWithRefiner(ctx context.Context, l *lts.LTS, _ Refiner) (*Partition, error) {
	return DivergenceSensitiveBranchingContext(ctx, l)
}
