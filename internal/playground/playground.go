// Package playground is the pure core behind the in-browser BBVL
// playground: vet-on-keystroke diagnostics, full verification runs and
// distinguishing-experiment extraction over the embedded example
// catalogue, all as plain functions over strings. The wasm binding
// (wasm/wasm.go) is a thin syscall/js shim over this package; native
// tests drive the same functions directly, so the browser path is
// exercised on every `go test` without a browser.
//
// The package belongs to the core layer: it runs every job on the zero
// statecodec.Backend (in-memory state store, no RSS probe) and imports
// nothing platform-specific, so it compiles for js/wasm unchanged.
package playground

import (
	"context"
	"errors"
	"fmt"
	"strings"

	bbvlexamples "repro/examples/bbvl"
	"repro/internal/api"
	"repro/internal/bisim"
	"repro/internal/core"
	"repro/internal/statecodec"
)

// Example is one embedded model of the catalogue.
type Example struct {
	Name   string `json:"name"`   // bare name, e.g. "treiber"
	File   string `json:"file"`   // embedded filename, e.g. "treiber.bbvl"
	Source string `json:"source"` // exact model source
}

// Examples returns the embedded model catalogue, sorted by name.
func Examples() []Example {
	names := bbvlexamples.Names()
	out := make([]Example, 0, len(names))
	for _, n := range names {
		src, err := bbvlexamples.Source(n)
		if err != nil {
			panic("playground: " + err.Error()) // embed set is compile-time fixed
		}
		out = append(out, Example{Name: n, File: bbvlexamples.Filename(n), Source: string(src)})
	}
	return out
}

// VetResult is the outcome of one editor vet pass. A model that does
// not even load (parse or type error) reports it in Error; a loadable
// model reports the analysis findings, with OK false when any finding
// has error severity (the model would be rejected by check).
type VetResult struct {
	OK       bool             `json:"ok"`
	Error    string           `json:"error,omitempty"`
	Findings []api.VetFinding `json:"findings,omitempty"`
}

// Vet runs the pre-exploration static-analysis pass over source exactly
// as `bbverify vet` and the check gate do, at the given instance bounds.
// It never returns a Go error: every failure mode is data for the
// editor to render.
func Vet(name, source string, threads, ops int) VetResult {
	spec := api.JobSpec{
		Kind:        api.KindCheck,
		Threads:     threads,
		Ops:         ops,
		ModelSource: source,
		ModelName:   name,
	}
	findings, err := api.VetSpec(spec)
	if err != nil {
		var ve *api.VetError
		if errors.As(err, &ve) {
			return VetResult{Findings: ve.Findings}
		}
		return VetResult{Error: err.Error()}
	}
	return VetResult{OK: true, Findings: findings}
}

// CheckRequest selects what Check verifies: a BBVL model (Source, with
// Name for diagnostics) or a registry algorithm (Algorithm), at the
// given instance bounds. Zero Threads/Ops take the service defaults via
// JobSpec.Normalize; empty Checks run the kind's default check set.
type CheckRequest struct {
	Source    string   `json:"source,omitempty"`
	Name      string   `json:"name,omitempty"`
	Algorithm string   `json:"algorithm,omitempty"`
	Threads   int      `json:"threads,omitempty"`
	Ops       int      `json:"ops,omitempty"`
	MaxStates int      `json:"max_states,omitempty"`
	Checks    []string `json:"checks,omitempty"`
	// Reduction enables the static τ-confluence partial-order reduction
	// (see api.JobSpec.Reduction): identical verdicts, fewer explored
	// states for models whose IR licenses pruning.
	Reduction bool `json:"reduction,omitempty"`
}

func (r CheckRequest) spec() api.JobSpec {
	return api.JobSpec{
		Kind:        api.KindCheck,
		Algorithm:   r.Algorithm,
		ModelSource: r.Source,
		ModelName:   r.Name,
		Threads:     r.Threads,
		Ops:         r.Ops,
		MaxStates:   r.MaxStates,
		Checks:      r.Checks,
		Reduction:   r.Reduction,
	}
}

// Check runs the full verification job the request describes and
// returns the result JSON — the same flow, schema and bytes as the
// native CLI's `check -json` (vet gate first, then the shared runner,
// warnings attached, canonical encoding): only the platform backend
// differs, which by the storage contract never changes a result.
func Check(ctx context.Context, req CheckRequest) (string, error) {
	job, err := api.Resolve(req.spec(), statecodec.Backend{})
	if err != nil {
		return "", err
	}
	res, err := job.RunVetted(ctx)
	if err != nil {
		var ve *api.VetError
		if errors.As(err, &ve) {
			var b strings.Builder
			for _, f := range ve.Findings {
				fmt.Fprintln(&b, f.String())
			}
			return "", fmt.Errorf("%w\n%s", err, strings.TrimRight(b.String(), "\n"))
		}
		return "", err
	}
	var b strings.Builder
	if err := api.EncodeResult(&b, res); err != nil {
		return "", err
	}
	return b.String(), nil
}

// ExplainResult is the outcome of a distinguishing-experiment
// extraction between an object and its specification.
type ExplainResult struct {
	Kind       string `json:"kind"`
	ImplStates int    `json:"impl_states"`
	SpecStates int    `json:"spec_states"`
	Bisimilar  bool   `json:"bisimilar"`
	// Experiment is the minimal distinguishing experiment in
	// bisim.Experiment.Format rendering, replay-verified on both
	// systems; empty when the systems are bisimilar.
	Experiment string `json:"experiment,omitempty"`
}

// Explain mirrors `bbverify explain`: it explores the object and its
// declared specification over shared alphabets, tests them for
// branching (or divergence-sensitive branching) bisimilarity and, when
// they differ, extracts and replay-verifies a minimal distinguishing
// experiment.
func Explain(ctx context.Context, req CheckRequest, kindName string) (*ExplainResult, error) {
	var kind bisim.Kind
	switch kindName {
	case "", "branching":
		kind, kindName = bisim.KindBranching, "branching"
	case "div-branching":
		kind = bisim.KindDivBranching
	default:
		return nil, fmt.Errorf("playground: unknown kind %q (want branching or div-branching)", kindName)
	}
	job, err := api.Resolve(req.spec(), statecodec.Backend{})
	if err != nil {
		return nil, err
	}
	sess := core.NewSession(job.Config)
	impl, _, err := sess.ExploreWithInfoContext(ctx, job.Alg.Build(job.AlgConfig))
	if err != nil {
		return nil, err
	}
	specLTS, _, err := sess.ExploreWithInfoContext(ctx, job.Alg.Spec(job.AlgConfig))
	if err != nil {
		return nil, err
	}
	res := &ExplainResult{Kind: kindName, ImplStates: impl.NumStates(), SpecStates: specLTS.NumStates()}
	exp, bad, err := sess.ExplainContext(ctx, impl, specLTS, kind)
	if err != nil {
		return nil, err
	}
	if !bad {
		res.Bisimilar = true
		return res, nil
	}
	if err := exp.Verify(impl, specLTS); err != nil {
		return nil, fmt.Errorf("playground: extracted experiment fails replay: %w", err)
	}
	res.Experiment = exp.Format()
	return res, nil
}
