// Package vet is the pre-exploration static-analysis pass over compiled
// machine.Program values. It runs a handful of cheap analyzers — control
// flow, interval dataflow and a bounded τ-cycle probe — and reports
// positioned findings before the exponential state-space exploration is
// ever attempted: a structurally dead guard or an unreachable statement
// makes a model vacuously pass, and a solo τ-cycle wastes the whole
// exploration budget on a verdict the structure already determines.
//
// Analyzers that read the micro-instruction metadata (Stmt.IR) apply to
// BBVL-compiled programs only; hand-coded registry programs, whose
// statements are opaque Go closures, still get the τ-cycle probe, which
// executes statements rather than inspecting them.
package vet

import (
	"fmt"
	"sort"

	"repro/internal/machine"
)

// Severity grades a finding.
type Severity string

const (
	// Warning findings are advisory: the program runs, but part of it is
	// dead, unused or structurally divergent.
	Warning Severity = "warning"
	// Error findings make verification meaningless (e.g. a method that
	// can never return cannot match any specification's visible actions);
	// callers should refuse to explore.
	Error Severity = "error"
)

// Finding is one vet diagnostic.
type Finding struct {
	// Analyzer is the stable analyzer ID (see Catalog).
	Analyzer string
	Severity Severity
	// Program is the analyzed program's name; Method and Label name the
	// statement the finding is anchored to, when it is anchored to one.
	Program string
	Method  string
	Label   string
	// Pos is the source position for BBVL-compiled programs; the zero
	// Pos for hand-coded ones.
	Pos machine.Pos
	Msg string
}

// String renders "file:line:col: severity: msg [analyzer]" for findings
// with a source position, falling back to "program/Method/Label" anchors.
func (f Finding) String() string {
	anchor := f.Program
	if f.Method != "" {
		anchor += "/" + f.Method
	}
	if f.Label != "" {
		anchor += "/" + f.Label
	}
	if f.Pos.IsValid() {
		anchor = f.Pos.String()
	}
	return fmt.Sprintf("%s: %s: %s [%s]", anchor, f.Severity, f.Msg, f.Analyzer)
}

// Options configures one vet pass.
type Options struct {
	// Threads and Ops size the instance the τ-cycle pilot walks and the
	// one Reduce's heap-sufficiency check assumes; 0 defaults to 2.
	Threads int
	Ops     int
	// LockBased skips the τ-cycle probe: a lock-based object spins on
	// lock acquisition by design, and its liveness check is
	// deadlock-freedom, not lock-freedom.
	LockBased bool
	// NoTauCycle disables the τ-cycle probe entirely (used for abstract
	// programs, whose atomic bodies cannot spin).
	NoTauCycle bool
	// Companions are other programs compiled from the same source whose
	// IR also counts as variable uses (the abstract program reads the
	// same globals as the implementation).
	Companions []*machine.Program
	// SkipUnusedGlobals disables the unused-global analysis (abstract
	// programs legitimately touch a subset of the shared schema).
	SkipUnusedGlobals bool
}

// AnalyzerInfo describes one analyzer for the catalogue.
type AnalyzerInfo struct {
	ID          string   `json:"id"`
	Severity    Severity `json:"severity"`
	Description string   `json:"description"`
	// NeedsIR marks analyzers that only run on BBVL-compiled programs.
	NeedsIR bool `json:"needs_ir"`
}

// Catalog lists every analyzer, sorted by ID. The IDs are stable: they
// appear in findings, metrics labels and the daemon's /v1/analyzers
// endpoint.
func Catalog() []AnalyzerInfo {
	return []AnalyzerInfo{
		{ID: "deadguard", Severity: Warning, Description: "branch condition is constant under interval analysis (one branch can never run)", NeedsIR: true},
		{ID: "overflow", Severity: Warning, Description: fmt.Sprintf("stored value can fall outside the structural value window [%d, %d]: only the interval state layout can encode it, and exploration without that layout fails with a model runtime error", machine.EncodeMin, machine.EncodeMax), NeedsIR: true},
		{ID: "specshape", Severity: Error, Description: "structural spec mismatch: a method with no reachable return, or an abstract block that does not mirror the implementation", NeedsIR: true},
		{ID: "taucycle", Severity: Warning, Description: "solo τ-cycle: a thread can loop on internal statements forever with all other threads frozen (candidate lock-freedom divergence)", NeedsIR: false},
		{ID: "unreachable", Severity: Warning, Description: "statement unreachable from its method entry", NeedsIR: true},
		{ID: "unusedvar", Severity: Warning, Description: "global variable never used or only ever written; node kind never allocated", NeedsIR: true},
	}
}

// Check runs every applicable analyzer over p and returns the findings
// in deterministic order (position, then method, label and analyzer).
func Check(p *machine.Program, opts Options) []Finding {
	var findings []Finding
	if hasIR(p) {
		a := newAnalysis(p, opts)
		findings = append(findings, a.runUnreachable()...)
		a.runIntervals()
		findings = append(findings, a.runDeadGuards()...)
		findings = append(findings, a.runOverflow()...)
		findings = append(findings, a.runSpecShape()...)
		if !opts.SkipUnusedGlobals {
			findings = append(findings, a.runUnusedVars()...)
		}
	}
	if !opts.NoTauCycle && !opts.LockBased {
		findings = append(findings, runTauCycle(p, opts)...)
	}
	sortFindings(findings)
	return findings
}

// hasIR reports whether the program carries micro-instruction metadata
// (i.e. was compiled from BBVL).
func hasIR(p *machine.Program) bool {
	for mi := range p.Methods {
		for si := range p.Methods[mi].Body {
			if p.Methods[mi].Body[si].IR == nil {
				return false
			}
		}
	}
	return len(p.Methods) > 0
}

func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.File != b.Pos.File {
			return a.Pos.File < b.Pos.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Msg < b.Msg
	})
}

// Sort orders findings deterministically by (position, method, label,
// analyzer, message). Check already returns sorted findings; callers
// that merge findings from several programs re-sort the union.
func Sort(fs []Finding) { sortFindings(fs) }

// HasErrors reports whether any finding is severity Error.
func HasErrors(fs []Finding) bool {
	for _, f := range fs {
		if f.Severity == Error {
			return true
		}
	}
	return false
}
