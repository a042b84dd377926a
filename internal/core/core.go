// Package core implements the paper's two verification methods (Fig. 1):
//
//   - Linearizability via branching-bisimulation quotients (Theorem 5.3):
//     Δ is linearizable w.r.t. the specification Θsp iff Δ/≈ ⊑tr Θsp/≈.
//   - Lock-freedom via divergence-sensitive branching bisimulation,
//     either automatically against the object's own quotient
//     (Theorem 5.9) or against a hand-written abstract program
//     (Theorem 5.8).
//
// Both methods work on labeled transition systems generated from
// machine.Program models under most general clients, need no
// linearization-point annotations, and produce counterexamples: a
// non-linearizable history, or a divergence (τ-lasso) diagnostic.
//
// On wait-freedom: under a bounded most general client every cycle of the
// state graph is a τ-cycle (calls consume operation budget, returns end
// pending operations), so an execution in which one thread is starved by
// infinitely many successful operations of the others is not expressible
// and lock-freedom and wait-freedom coincide on these instances. Checking
// wait-freedom properly needs fairness assumptions, which the paper also
// leaves to next-free LTL over fair schedulers (Section V.B); this
// library takes the same position.
package core

import (
	"context"
	"time"

	"repro/internal/bisim"
	"repro/internal/lts"
	"repro/internal/machine"
	"repro/internal/refine"
	"repro/internal/statecodec"
	"repro/internal/vet"
)

// Config bounds an individual verification instance.
type Config struct {
	// Threads is the number of most-general-client threads.
	Threads int
	// Ops is the number of operations per thread.
	Ops int
	// MaxStates caps each state-space generation; 0 uses the machine
	// package default.
	MaxStates int
	// Workers sets the exploration worker count (0 = all cores, 1 =
	// sequential); the generated LTSs — and hence every verdict — are
	// identical for any value. See machine.Options.Workers.
	Workers int
	// MemBudget bounds (in bytes) the resident state storage of each
	// exploration; past it, a spill-capable Backend sheds intern-table
	// generations and frontier levels to temp files. 0 keeps everything
	// in RAM. Budgets never change any LTS, quotient or verdict — see
	// machine.Options.MemBudget. A positive budget requires Backend.Open.
	MemBudget int64
	// SpillDir is the parent directory for spill temp files; empty uses
	// the OS temp dir.
	SpillDir string
	// Reduction enables the τ-confluence partial-order reduction: each
	// program is analysed by vet.Reduce before it is explored, and the
	// explorer prunes with the confluent statements the analysis
	// licenses. Programs without IR explore in full. A sound reduction
	// never changes any quotient or verdict — the reduced LTS is
	// divergence-preserving branching bisimilar to the full one — only
	// the number of explored states. Sessions time the analysis as its
	// own StageReduction stage.
	Reduction bool
	// Backend supplies the platform services of each exploration (state
	// store opener, peak-RSS probe); the zero value is the pure, OS-free
	// configuration. See machine.Options.Backend.
	Backend statecodec.Backend
	// StageObserver, when set, is invoked with every StageStat the moment
	// a session records it (freshly computed and cache-served stages
	// alike), turning the per-stage instrumentation into a live event
	// source — the daemon streams these over SSE. The observer runs with
	// the session mutex held: it must be fast and must not call back into
	// the session. It never changes any result.
	StageObserver func(StageStat)
}

// options configures the exploration of p. Every program is packed with
// the state layout vet's interval analysis narrows for this instance's
// bounds; programs without IR get the structural layout. Layouts never
// change any result, only bytes per state.
func (c Config) options(p *machine.Program, acts, labels *lts.Alphabet) machine.Options {
	return machine.Options{
		Threads:   c.Threads,
		Ops:       c.Ops,
		MaxStates: c.MaxStates,
		Workers:   c.Workers,
		Acts:      acts,
		Labels:    labels,
		MemBudget: c.MemBudget,
		SpillDir:  c.SpillDir,
		Backend:   c.Backend,
		Layout:    vet.StateLayout(p, c.vetOptions()),
	}
}

func (c Config) vetOptions() vet.Options {
	return vet.Options{Threads: c.Threads, Ops: c.Ops}
}

// reduction runs the τ-confluence analysis for p when c.Reduction is
// set. It returns nil when the reduction is off or licenses nothing.
func (c Config) reduction(p *machine.Program) *machine.Reduction {
	if !c.Reduction {
		return nil
	}
	red := vet.Reduce(p, c.vetOptions()).Machine()
	if red == nil || red.Empty() {
		return nil
	}
	return red
}

// ExploreContext generates the LTS of a program under this
// configuration, outside any Session, for analyses beyond the canned
// checks; see machine.ExploreWithInfoContext.
func ExploreContext(ctx context.Context, p *machine.Program, cfg Config) (*lts.LTS, error) {
	opt := cfg.options(p, nil, nil)
	opt.Reduction = cfg.reduction(p)
	l, _, err := machine.ExploreWithInfoContext(ctx, p, opt)
	return l, err
}

// LinearizabilityResult reports a Theorem 5.3 check.
type LinearizabilityResult struct {
	// Linearizable is the verdict.
	Linearizable bool
	// Counterexample is a non-linearizable history when the verdict is
	// negative (e.g. the double-remove history of the buggy HM list).
	Counterexample *refine.Counterexample
	// Distinguishing, set on a negative verdict when the two quotients are
	// not even branching bisimilar, is a shortest distinguishing
	// experiment between them (a stronger diagnostic than the trace
	// counterexample: it shows where the branching structures diverge).
	Distinguishing *bisim.Explanation
	// State-space sizes: the object Δ, the specification Θsp and their
	// branching-bisimulation quotients.
	ImplStates, SpecStates           int
	ImplQuotientStates, SpecQuotient int
	// Elapsed is the total wall-clock verification time.
	Elapsed time.Duration
	// Stages instruments the pipeline stages that produced this result,
	// in execution order; stages served from a Session's artifact store
	// are marked Cached.
	Stages []StageStat
}

// LockFreedomResult reports a Theorem 5.8 or 5.9 check.
type LockFreedomResult struct {
	// LockFree is the verdict.
	LockFree bool
	// Divergence is a τ-lasso witnessing the violation when LockFree is
	// false (Fig. 9 style).
	Divergence *lts.Path
	// Theorem names the proof rule used: "5.9 (quotient)" or
	// "5.8 (abstract)".
	Theorem string
	// ImplStates and AbstractStates are the state-space sizes of the
	// object and of the quotient/abstract program it was compared with.
	ImplStates, AbstractStates int
	// Bisimilar reports whether impl ≈div the quotient/abstraction.
	Bisimilar bool
	// Elapsed is the total wall-clock verification time.
	Elapsed time.Duration
	// Stages instruments the pipeline stages that produced this result.
	Stages []StageStat
}

// EquivalenceReport compares an object with its specification under both
// weak and branching bisimilarity (Table VII of the paper).
type EquivalenceReport struct {
	ImplStates, SpecStates         int
	ImplQuotient, SpecQuotient     int
	WeakBisimilar, BranchBisimilar bool
	Elapsed                        time.Duration
	// Stages instruments the pipeline stages that produced this report.
	Stages []StageStat
}

// DeadlockResult reports a deadlock-freedom check. Deadlock-freedom is a
// sanity property for the lock-based objects of Table II's bottom half:
// no reachable state may leave some client forever blocked with no
// transition enabled (the legitimate end states — all operations
// completed — do not count).
type DeadlockResult struct {
	// DeadlockFree is the verdict.
	DeadlockFree bool
	// Witness is a shortest path into a deadlocked state when the verdict
	// is negative.
	Witness *lts.Path
	// States is the explored state-space size.
	States int
	// Elapsed is the wall-clock check time.
	Elapsed time.Duration
	// Stages instruments the pipeline stages that produced this result.
	Stages []StageStat
}
