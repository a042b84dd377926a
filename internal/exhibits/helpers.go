package exhibits

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/algorithms"
	"repro/internal/bisim"
	"repro/internal/lts"
	"repro/internal/machine"
)

// oneVal is the value universe used for the large parameter sweeps
// (Tables III–VI, Fig. 10), trading value diversity for depth, as
// documented in EXPERIMENTS.md. Correctness checks (Table II) use the
// default two-value universe so that value mix-ups stay observable.
var oneVal = []int32{1}

// explore builds the LTS of one algorithm instance, reporting capped=true
// (and no error) when the state budget is exceeded.
func explore(p *machine.Program, threads, ops int, opt Options, acts, labels *lts.Alphabet) (l *lts.LTS, wasCapped bool, err error) {
	l, _, err = machine.ExploreWithInfoContext(context.Background(), p, machine.Options{
		Threads:   threads,
		Ops:       ops,
		MaxStates: opt.maxStates(),
		Workers:   opt.Workers,
		Acts:      acts,
		Labels:    labels,
	})
	var lim *machine.StateLimitError
	if errors.As(err, &lim) {
		return nil, true, nil
	}
	if err != nil {
		return nil, false, err
	}
	return l, false, nil
}

// isStateLimit reports whether err (possibly wrapped) is a state-budget
// overflow.
func isStateLimit(err error) bool {
	var lim *machine.StateLimitError
	return errors.As(err, &lim)
}

// mustAlg resolves a registry entry; exhibit code treats a missing entry
// as a programming error.
func mustAlg(id string) *algorithms.Algorithm {
	a, err := algorithms.ByID(id)
	if err != nil {
		panic(fmt.Sprintf("exhibits: %v", err))
	}
	return a
}

// quotientOf reduces an LTS, returning the quotient.
func quotientOf(l *lts.LTS) *lts.LTS {
	q, _, _ := bisim.ReduceBranchingContext(context.Background(), l) // fails only on cancellation
	return q
}

// secs renders a duration as the paper's seconds column.
func secs(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }

// mark renders the paper's ✓ / empty cells.
func mark(b bool) string {
	if b {
		return "Y"
	}
	return ""
}
