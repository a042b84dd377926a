package api

import (
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/bbvl"
	"repro/internal/vet"
)

// VetFinding is one static-analysis diagnostic in wire form, shared by
// `bbverify vet -json`, `bbverify check -json` and the bbvd service.
type VetFinding struct {
	Analyzer string `json:"analyzer"`
	Severity string `json:"severity"`
	Program  string `json:"program,omitempty"`
	Method   string `json:"method,omitempty"`
	Label    string `json:"label,omitempty"`
	File     string `json:"file,omitempty"`
	Line     int    `json:"line,omitempty"`
	Col      int    `json:"col,omitempty"`
	Msg      string `json:"msg"`
}

// String renders the finding like vet.Finding.String.
func (f VetFinding) String() string {
	anchor := f.Program
	if f.Method != "" {
		anchor += "/" + f.Method
	}
	if f.Label != "" {
		anchor += "/" + f.Label
	}
	if f.Line > 0 {
		anchor = fmt.Sprintf("%s:%d:%d", f.File, f.Line, f.Col)
	}
	return fmt.Sprintf("%s: %s: %s [%s]", anchor, f.Severity, f.Msg, f.Analyzer)
}

// VetFindingsJSON converts vet findings to wire form.
func VetFindingsJSON(fs []vet.Finding) []VetFinding {
	out := make([]VetFinding, 0, len(fs))
	for _, f := range fs {
		out = append(out, VetFinding{
			Analyzer: f.Analyzer,
			Severity: string(f.Severity),
			Program:  f.Program,
			Method:   f.Method,
			Label:    f.Label,
			File:     f.Pos.File,
			Line:     f.Pos.Line,
			Col:      f.Pos.Col,
			Msg:      f.Msg,
		})
	}
	return out
}

// VetError rejects a job whose program has error-severity vet findings:
// running it would explore a program whose verification is structurally
// vacuous. Findings holds every finding of the failed pass (warnings
// included), so the client sees the full picture in one response.
type VetError struct {
	Findings []VetFinding
}

// Error implements the error interface.
func (e *VetError) Error() string {
	n := 0
	for _, f := range e.Findings {
		if f.Severity == string(vet.Error) {
			n++
		}
	}
	return fmt.Sprintf("api: vet found %d error(s) in the job's program; fix them or run bbverify vet for details", n)
}

// ListAnalyzers returns the vet analyzer catalogue for
// `bbverify vet -list` and GET /v1/analyzers.
func ListAnalyzers() []vet.AnalyzerInfo { return vet.Catalog() }

// IndependenceReport runs the static independence / τ-confluence
// analysis over the program a job would verify, for `bbverify vet
// -independence`. The artifact is nil for programs that carry no IR
// (the registry rows still written as Go closures): the analysis
// cannot see inside them, so nothing is licensed. The spec is normalized
// but not validated — callers validate separately.
func IndependenceReport(spec JobSpec) (*vet.ReductionArtifact, error) {
	spec.Normalize()
	alg, _, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	p := alg.Build(spec.algorithmConfig())
	return vet.Reduce(p, vet.Options{Threads: spec.Threads, Ops: spec.Ops}), nil
}

// VetSpec runs the pre-exploration static-analysis pass over the
// program a job would verify: the full model pass (AST checks, interval
// analyzers, τ-cycle probe) for model jobs, or vet.Check for registry
// algorithms (only the τ-cycle probe for rows that carry no IR). It returns
// every finding in wire form; the error is a *VetError when any finding
// has error severity, in which case the job must not run. The spec is
// normalized but not validated — callers validate separately.
func VetSpec(spec JobSpec) ([]VetFinding, error) {
	spec.Normalize()
	alg, m, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	return vetProgram(spec, alg, m)
}

// vetProgram runs the vet pass over alg, or over m when the job is a
// model job.
func vetProgram(spec JobSpec, alg *algorithms.Algorithm, m *bbvl.Model) ([]VetFinding, error) {
	var fs []vet.Finding
	if m != nil {
		fs = m.Vet(spec.algorithmConfig())
	} else {
		fs = vet.Check(alg.Build(spec.algorithmConfig()), vet.Options{
			Threads:   spec.Threads,
			Ops:       spec.Ops,
			LockBased: alg.LockBased,
		})
	}
	out := VetFindingsJSON(fs)
	if vet.HasErrors(fs) {
		return out, &VetError{Findings: out}
	}
	return out, nil
}
