// Package bbvl implements the Branching-Bisimulation Verification
// Language: a small textual modeling language for the concurrent objects
// this repository verifies. A model file declares the shared state
// (globals and heap node kinds), the object's methods as sequences of
// labeled guarded atomic statements, a builtin single-atomic-block
// specification (stack, queue or set), and optionally an abstract
// program in the sense of Theorem 5.8.
//
// The pipeline is lexer → parser → typechecker → compiler. Checking
// enforces the modeling discipline the paper's case studies follow: each
// atomic statement of an implementation method performs at most one
// destructive shared-memory access (a global or field write, CAS, alloc,
// free, lock or unlock) — reads ride along, as the paper's models
// snapshot several variables in one step — with two exceptions from the
// lock-based lists: allocating and linking a node, and releasing two
// locks at once. Every diagnostic carries a file:line:col position. Abstract methods are exempt, exactly as the paper's
// coarse-grained abstractions are.
//
// Compilation targets machine.Program with a deliberately transparent
// mapping — declaration order fixes global indices, local register slots
// and node-field assignment onto machine.Node; statement labels and
// outcome emission follow the source — so a model that re-encodes a
// hand-coded program explores a byte-identical LTS. Nine registry rows
// (treiber, the MS and DGLM queues, the spin-lock stack and the five
// lock-based objects) are the models in examples/bbvl, held to the LTS
// digests of the closures they replaced by internal/algorithms' digest
// test.
//
// Model text enters the system through "bbverify check -model",
// "bbverify compile", the model_source field of a bbvd job, or the
// registry. Config and Algorithm, the registry's row types, live here
// so the registry can compile models without an import cycle.
package bbvl

// Load parses and checks model source. Filename is used in diagnostic
// positions only. On failure the error is an ErrorList of positioned
// diagnostics.
func Load(filename string, src []byte) (*Model, error) {
	f, err := Parse(filename, src)
	if err != nil {
		return nil, err
	}
	return Check(f)
}
