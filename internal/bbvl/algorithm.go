package bbvl

import "repro/internal/machine"

// Config sizes one verification instance of an algorithm. The registry
// (internal/algorithms) re-exports it as algorithms.Config; it lives
// here because the registry compiles its ported rows from BBVL.
type Config struct {
	// Threads and Ops bound the most general client (per the paper's
	// #Th.#Op instance naming).
	Threads, Ops int
	// Vals is the data-value universe for Push/Enq arguments and the key
	// universe for set algorithms; nil means {1, 2}.
	Vals []int32
}

// Values returns the configured value universe.
func (c Config) Values() []int32 {
	if c.Vals == nil {
		return []int32{1, 2}
	}
	return c.Vals
}

// TotalOps is the total operation budget, which bounds allocations.
func (c Config) TotalOps() int { return c.Threads * c.Ops }

// Algorithm ties an implementation to its specification and metadata:
// a registry row (re-exported as algorithms.Algorithm) or a model
// wrapped by Model.Algorithm.
type Algorithm struct {
	// ID is the short machine-readable name (e.g. "ms-queue").
	ID string
	// Display is the Table II row name.
	Display string
	// Ref is the paper's citation marker.
	Ref string
	// NonFixedLPs marks algorithms whose linearization points depend on
	// future execution (the ✓ column of Tables I and II).
	NonFixedLPs bool
	// LockBased marks the lock-based objects, for which deadlock-freedom
	// replaces lock-freedom as the liveness check.
	LockBased bool
	// Extension marks algorithms beyond the paper's Table II, packaged as
	// additional demonstrations (e.g. the ABA-unsafe Treiber stack).
	Extension bool
	// ExpectLinearizable and ExpectLockFree are the paper's verdicts.
	ExpectLinearizable bool
	ExpectLockFree     bool
	// Build constructs the implementation model.
	Build func(Config) *machine.Program
	// Spec constructs the linearizable specification.
	Spec func(Config) *machine.Program
	// Abstract constructs the Theorem 5.8 abstract program, when the
	// paper provides one; nil otherwise.
	Abstract func(Config) *machine.Program
}

// Algorithm wraps the model as a registry-shaped algorithm so every
// existing check (linearizability, lock-freedom or deadlock-freedom,
// k-traces) runs on models unchanged.
func (m *Model) Algorithm() *Algorithm {
	a := &Algorithm{
		ID:        "model:" + m.Name,
		Display:   m.Name + " (BBVL model)",
		Ref:       "(model)",
		Extension: true,
		LockBased: m.LockBased,
		Build:     m.Build,
		Spec:      m.SpecProgram,
	}
	if m.HasAbstract {
		a.Abstract = m.AbstractProgram
	}
	return a
}
