// Package bbv verifies linearizability and lock-freedom of concurrent
// objects with branching bisimulation, reproducing the techniques of
//
//	Xiaoxiao Yang, Gaoang Liu, Joost-Pieter Katoen, Huimin Lin, Hao Wu:
//	"Branching Bisimulation and Concurrent Object Verification", DSN 2018.
//
// The package is a facade over the repository's engine:
//
//   - Model a concurrent object as a machine.Program: methods are
//     sequences of atomic statements over a shared heap; a most general
//     client explores every interleaving, producing a labeled transition
//     system whose only visible actions are method calls and returns.
//   - CheckLinearizabilityContext (Theorem 5.3) decides trace refinement
//     between the branching-bisimulation quotients of the object and its
//     single-atomic-block specification — no linearization-point
//     annotations required — and yields a non-linearizable history on
//     failure.
//   - CheckLockFreeContext (Theorem 5.9) decides divergence-sensitive
//     branching bisimilarity between the object and its own quotient,
//     yielding a divergence (τ-lasso) on failure;
//     CheckLockFreeAbstractContext (Theorem 5.8) instead compares against
//     a hand-written coarser abstract program.
//
// Fourteen benchmark algorithms from the paper's Table II ship in the
// registry (Algorithms, AlgorithmByID), and the exhibits (Exhibits) can
// regenerate every table and figure of the paper's evaluation.
//
// A minimal session:
//
//	ctx := context.Background()
//	alg, _ := bbv.AlgorithmByID("ms-queue")
//	cfg := bbv.Instance{Threads: 2, Ops: 2}
//	res, err := bbv.CheckLinearizabilityContext(ctx, alg.Build(cfg.Algorithm()), alg.Spec(cfg.Algorithm()), cfg)
//	// res.Linearizable == true
package bbv

import (
	"context"

	"repro/internal/algorithms"
	"repro/internal/api"
	"repro/internal/bisim"
	"repro/internal/core"
	"repro/internal/exhibits"
	"repro/internal/ltl"
	"repro/internal/lts"
	"repro/internal/machine"
	"repro/internal/statestore"
)

// Instance bounds one verification run: the number of most-general-client
// threads, the operations each may perform, and an optional state budget.
type Instance struct {
	Threads   int
	Ops       int
	MaxStates int
	// Workers sets the state-space exploration worker count (0 = all
	// cores, 1 = one worker). Results are identical for any value.
	Workers int
	// MemBudget bounds (in bytes) the resident state storage of each
	// exploration; past it, state storage spills to temp files. Zero
	// keeps everything in RAM. Results are identical for any budget.
	MemBudget int64
	// Vals overrides the data-value universe of the packaged algorithms
	// (default {1, 2}).
	Vals []int32
}

// Algorithm converts the instance into the algorithm-builder config.
func (i Instance) Algorithm() algorithms.Config {
	return algorithms.Config{Threads: i.Threads, Ops: i.Ops, Vals: i.Vals}
}

func (i Instance) core() core.Config {
	return core.Config{
		Threads:   i.Threads,
		Ops:       i.Ops,
		MaxStates: i.MaxStates,
		Workers:   i.Workers,
		MemBudget: i.MemBudget,
		// Wire the platform backend so MemBudget can spill and results
		// carry real RSS telemetry.
		Backend: statestore.Runtime(),
	}
}

// CacheKey returns the canonical content hash under which the bbvd
// verification service caches a job of the given kind ("check",
// "explore" or "ktrace") on algorithmID with this instance. Two
// instances that can only differ in wall-clock behaviour — Workers and
// MemBudget — share a key; instances that can differ in outcome
// (Threads, Ops, MaxStates, Vals) do not.
func (i Instance) CacheKey(kind, algorithmID string) string {
	return api.JobSpec{
		Kind:      kind,
		Algorithm: algorithmID,
		Threads:   i.Threads,
		Ops:       i.Ops,
		MaxStates: i.MaxStates,
		Workers:   i.Workers,
		Vals:      i.Vals,
	}.CacheKey()
}

// Program is a concurrent object model; see machine.Program for how to
// define one.
type Program = machine.Program

// Algorithm is a packaged benchmark: implementation, specification and
// (for some) an abstract program, with the paper's expected verdicts.
type Algorithm = algorithms.Algorithm

// LinearizabilityResult reports a Theorem 5.3 check.
type LinearizabilityResult = core.LinearizabilityResult

// LockFreedomResult reports a Theorem 5.8/5.9 check.
type LockFreedomResult = core.LockFreedomResult

// Algorithms returns the packaged Table II benchmarks.
func Algorithms() []*Algorithm { return algorithms.All() }

// AlgorithmByID resolves a packaged benchmark by its short ID
// (e.g. "treiber", "ms-queue", "hm-list-buggy").
func AlgorithmByID(id string) (*Algorithm, error) { return algorithms.ByID(id) }

// CheckLinearizabilityContext verifies impl against spec by quotient
// trace refinement (Theorem 5.3). When ctx is canceled or times out,
// exploration and refinement stop promptly and a typed cancellation error
// (machine.CanceledError or bisim.CanceledError, both unwrapping to the
// context cause) is returned.
func CheckLinearizabilityContext(ctx context.Context, impl, spec *Program, in Instance) (*LinearizabilityResult, error) {
	return NewSession(in).CheckLinearizabilityContext(ctx, impl, spec)
}

// CheckLockFreeContext verifies lock-freedom fully automatically by
// comparing the object with its own branching-bisimulation quotient under
// divergence-sensitive branching bisimilarity (Theorem 5.9).
func CheckLockFreeContext(ctx context.Context, impl *Program, in Instance) (*LockFreedomResult, error) {
	return NewSession(in).CheckLockFreeAutoContext(ctx, impl)
}

// CheckLockFreeAbstractContext verifies lock-freedom against a
// hand-written abstract program (Theorem 5.8).
func CheckLockFreeAbstractContext(ctx context.Context, impl, abstract *Program, in Instance) (*LockFreedomResult, error) {
	return NewSession(in).CheckLockFreeAbstractContext(ctx, impl, abstract)
}

// DeadlockResult reports a deadlock-freedom check.
type DeadlockResult = core.DeadlockResult

// CheckDeadlockFreeContext searches the object's state space for
// reachable states in which some client is blocked forever — the sanity
// property for lock-based objects.
func CheckDeadlockFreeContext(ctx context.Context, impl *Program, in Instance) (*DeadlockResult, error) {
	return NewSession(in).CheckDeadlockFreeContext(ctx, impl)
}

// Session is a per-instance artifact store: explored state spaces,
// quotients, τ-cycle analyses and equivalence verdicts are memoized, so
// any combination of checks on the same programs explores and quotients
// each artifact exactly once. Check results and Session.Stats carry
// per-stage instrumentation ([]StageStat).
type Session = core.Session

// StageStat instruments one pipeline stage (name, wall time, input and
// output sizes, refinement rounds, cache hit).
type StageStat = core.StageStat

// NewSession creates an artifact-reuse session for the instance. Reuse
// keys on program identity, so build each program once and pass the same
// pointer to every check:
//
//	s := bbv.NewSession(in)
//	impl := alg.Build(in.Algorithm())
//	lin, _ := s.CheckLinearizabilityContext(ctx, impl, alg.Spec(in.Algorithm()))
//	lf, _ := s.CheckLockFreeAutoContext(ctx, impl) // reuses impl's LTS and quotient
func NewSession(in Instance) *Session { return core.NewSession(in.core()) }

// Exhibit regenerates one table or figure of the paper.
type Exhibit = exhibits.Exhibit

// ExhibitOptions bounds exhibit computations.
type ExhibitOptions = exhibits.Options

// Exhibits lists every regenerable table and figure in paper order.
func Exhibits() []Exhibit { return exhibits.All() }

// ExhibitByName resolves an exhibit (e.g. "table3", "fig10").
func ExhibitByName(name string) (Exhibit, error) { return exhibits.ByName(name) }

// CheckLTL decides whether every maximal execution of the object
// satisfies a next-free LTL formula (package ltl), the property fragment
// preserved by divergence-sensitive branching bisimilarity (Section V.B
// of the paper). The object is explored under this instance's most
// general clients.
func CheckLTL(impl *Program, f *ltl.Formula, in Instance) (*ltl.Result, error) {
	l, err := core.ExploreContext(context.Background(), impl, in.core())
	if err != nil {
		return nil, err
	}
	return ltl.Check(l, f)
}

// EquivalenceReport compares an object with its specification under weak
// and branching bisimilarity (one row of the paper's Table VII).
type EquivalenceReport = core.EquivalenceReport

// CompareWithSpecContext computes the sizes of the object, its
// specification and both branching-bisimulation quotients, and decides
// Δ ~w Θsp and Δ ~br Θsp (on the quotients, which is sound).
func CompareWithSpecContext(ctx context.Context, impl, spec *Program, in Instance) (*EquivalenceReport, error) {
	return NewSession(in).CompareWithSpecContext(ctx, impl, spec)
}

// Explanation describes why two systems are not branching bisimilar.
type Explanation = bisim.Explanation

// ExplainSpecMismatch diagnoses why an object is not branching bisimilar
// to its specification: the refinement round at which their initial
// states separate and the capabilities only one side has. ok is false
// when the two are in fact bisimilar.
func ExplainSpecMismatch(impl, spec *Program, in Instance) (*Explanation, bool, error) {
	ctx := context.Background()
	s := NewSession(in)
	var qs [2]*lts.LTS
	for i, p := range []*Program{impl, spec} {
		l, _, err := s.ExploreWithInfoContext(ctx, p)
		if err != nil {
			return nil, false, err
		}
		if qs[i], err = s.QuotientContext(ctx, l); err != nil {
			return nil, false, err
		}
	}
	return s.ExplainContext(ctx, qs[0], qs[1], bisim.KindBranching)
}
