// Benchmark-only names. core applies the vet layout and the reduction
// policy itself (core.Config.Reduction), so no front end hands core a
// provider closure any more.
//
// One caller remains: the benchmark harness's trace composer
// (cmd/bbvbench/trace.go), which times the vet layout and the reduction
// analysis as layers of their own and is only changed together with the
// benchmark. Delete this file when a benchmark change migrates trace.go
// to vet.StateLayout and vet.Reduce.

package api

import (
	"repro/internal/machine"
	"repro/internal/statecodec"
	"repro/internal/vet"
)

// LayoutProvider returns a function that narrows a program's packed
// state layout with vet's interval analysis, for instances with the
// given client bounds.
func LayoutProvider(threads, ops int) func(p *machine.Program) *statecodec.Layout {
	return func(p *machine.Program) *statecodec.Layout {
		return vet.StateLayout(p, vet.Options{Threads: threads, Ops: ops})
	}
}

// ReductionProvider returns a function that runs vet's independence /
// τ-confluence analysis on a program, for instances with the given
// client bounds. Programs without IR yield nil.
func ReductionProvider(threads, ops int) func(p *machine.Program) *machine.Reduction {
	return func(p *machine.Program) *machine.Reduction {
		return vet.Reduce(p, vet.Options{Threads: threads, Ops: ops}).Machine()
	}
}
