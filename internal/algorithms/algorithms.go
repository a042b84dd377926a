// Package algorithms models the paper's 14 benchmark concurrent data
// structures (Table II) as machine.Program values, together with their
// linearizable specifications and — for MS/DGLM queues, CCAS and RDCSS —
// the abstract programs used by Theorem 5.8.
//
// The treiber, ms-queue, dglm-queue and spinlock-stack rows, the three
// lock-based lists and the two-lock-queue and coarse-list extensions
// compile from their BBVL sources in examples/bbvl (models.go): each
// .bbvl file is the only definition of its algorithm, and the Go table
// here keeps only its metadata. The other 12 rows are Go closures over
// machine.Ctx, each needing a language feature BBVL lacks (ROADMAP item
// 5).
//
// Statement granularity follows the paper's models: one shared-memory
// access (read, write, or CAS) per atomic statement; purely local
// computation rides along with the shared access that feeds it, and
// immutable fields (keys, values of initialized nodes) may be read in any
// statement. Statement labels carry the line numbers of the paper's
// pseudo-code where it gives them (Fig. 5), so quotient diagnostics print
// the same "L20"/"L28" markers the paper discusses.
package algorithms

import (
	"fmt"
	"sort"

	"repro/internal/bbvl"
)

// Node kinds used across the models.
const (
	kindNode  int32 = 1 // list/stack/queue cell
	kindDesc  int32 = 2 // CCAS/RDCSS descriptor
	kindOffer int32 = 3 // HSY elimination offer
)

// Config sizes one verification instance of an algorithm.
type Config = bbvl.Config

// Algorithm ties an implementation to its specification and metadata.
type Algorithm = bbvl.Algorithm

// All returns the registry: the 15 Table II rows (14 benchmarks; the HM
// list appears twice, buggy and revised) in paper order, followed by the
// packaged extensions.
func All() []*Algorithm {
	return []*Algorithm{
		treiberAlg(),
		treiberHPAlg(),
		treiberHPFuAlg(),
		msQueueAlg(),
		dglmQueueAlg(),
		ccasAlg(),
		rdcssAlg(),
		newCASAlg(),
		hmListBuggyAlg(),
		hmListAlg(),
		hwQueueAlg(),
		hsyStackAlg(),
		lazyListAlg(),
		optimisticListAlg(),
		fineGrainedListAlg(),
		treiberUnsafeFreeAlg(),
		spinLockStackAlg(),
		twoLockQueueAlg(),
		coarseListAlg(),
		harrisListAlg(),
		treiberVersionedAlg(),
	}
}

// TableII returns only the paper's Table II rows, in order.
func TableII() []*Algorithm {
	var out []*Algorithm
	for _, a := range All() {
		if !a.Extension {
			out = append(out, a)
		}
	}
	return out
}

// ByID looks up a registry entry.
func ByID(id string) (*Algorithm, error) {
	for _, a := range All() {
		if a.ID == id {
			return a, nil
		}
	}
	ids := make([]string, 0)
	for _, a := range All() {
		ids = append(ids, a.ID)
	}
	sort.Strings(ids)
	return nil, fmt.Errorf("algorithms: unknown algorithm %q (known: %v)", id, ids)
}
