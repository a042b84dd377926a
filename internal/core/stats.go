package core

import "time"

// Stage names used in StageStat records. Every expensive step of the
// verification pipeline reports under exactly one of these, so callers
// (the CLI stage table, the daemon's per-stage metrics, the exhibits
// runtime accounting) can aggregate without string guessing.
const (
	// StageExplore is state-space generation of one program.
	StageExplore = "explore"
	// StageReduction is the static independence / τ-confluence analysis
	// that licenses partial-order reduction for one program (runs before
	// that program's explore stage when Config.Reduction is set).
	StageReduction = "reduction"
	// StageQuotient is branching-bisimulation refinement plus quotient
	// construction of one LTS.
	StageQuotient = "quotient"
	// StageTauSCC is a τ-cycle (divergence) analysis of one LTS.
	StageTauSCC = "tau-scc"
	// StageEquivalence is a bisimulation-equivalence decision between two
	// LTSs (partitioning their disjoint union).
	StageEquivalence = "equivalence"
	// StageTraceInclusion is the quotient trace-refinement decision of
	// Theorem 5.3.
	StageTraceInclusion = "trace-inclusion"
	// StageKTrace is k-trace hierarchy analysis of a quotient.
	StageKTrace = "ktrace"
	// StageExplain is distinguishing-experiment extraction for an
	// inequivalent pair of LTSs (splitting-tree refinement plus witness
	// reconstruction).
	StageExplain = "explain"
)

// StageStat instruments one pipeline stage: what ran, on what, for how
// long, and how big its input and output were. Check results carry the
// stages that produced them in order; a Session additionally keeps the
// full log across all checks it served.
type StageStat struct {
	// Stage is one of the Stage* constants.
	Stage string `json:"stage"`
	// Target names the artifact the stage worked on (usually a program
	// name, or "a vs b" for comparisons).
	Target string `json:"target,omitempty"`
	// Elapsed is the stage's wall-clock time. Zero when Cached.
	Elapsed time.Duration `json:"elapsed"`
	// StatesIn/TransitionsIn describe the input LTS (zero for explore,
	// which starts from a program, not an LTS; the disjoint-union size
	// for equivalence; the summed quotient sizes for trace inclusion).
	StatesIn      int `json:"states_in,omitempty"`
	TransitionsIn int `json:"transitions_in,omitempty"`
	// StatesOut/TransitionsOut describe the output: the generated LTS
	// for explore, the quotient for quotient, the number of partition
	// blocks for equivalence, the explored pair count for trace
	// inclusion.
	StatesOut      int `json:"states_out,omitempty"`
	TransitionsOut int `json:"transitions_out,omitempty"`
	// Rounds is the number of partition-refinement rounds, when the
	// stage ran a refinement fixpoint.
	Rounds int `json:"rounds,omitempty"`
	// Cached marks a stage that was served from the session's artifact
	// store instead of recomputed; the size fields still describe the
	// artifact, Elapsed is zero.
	Cached bool `json:"cached,omitempty"`
	// Explore-stage storage telemetry (zero for other stages).
	//
	// BytesPerState is the effective encoded size of one interned state.
	BytesPerState float64 `json:"bytes_per_state,omitempty"`
	// PeakRSSBytes is the OS-reported process peak RSS at the end of the
	// stage (process-wide and monotone across a run).
	PeakRSSBytes int64 `json:"peak_rss_bytes,omitempty"`
	// SpillFiles counts temp files the exploration spilled state storage
	// into (0 = everything stayed within the memory budget).
	SpillFiles int `json:"spill_files,omitempty"`
	// StatesPerSec is the exploration throughput.
	StatesPerSec float64 `json:"states_per_sec,omitempty"`
	// PrunedStates counts successor expansions the τ-confluence
	// partial-order reduction replaced with a single prioritized
	// τ-transition during an explore stage (0 = no reduction installed
	// or nothing licensed). For a reduction stage, StatesOut is the
	// number of confluent statements instead.
	PrunedStates int64 `json:"pruned_states,omitempty"`
}
