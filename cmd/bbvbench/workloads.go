package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"

	bbvlexamples "repro/examples/bbvl"
	"repro/internal/algorithms"
	"repro/internal/api"
	"repro/internal/bbvl"
)

// workload is one named job list, submitted in a closed loop: one
// client sends a job, waits for its verdict, then sends the next.
type workload struct {
	name string
	why  string
	// passes is how many times a run submits the list, each time from a
	// fresh process. It is fixed, so a run takes the same number of
	// samples on every commit. Four passes is the fewest that keeps
	// peak RSS within its bound from run to run; more would push the
	// ms-queue and BBVL runs well past BENCHMARK.json's run_seconds on a
	// 2-vCPU machine.
	passes int
	jobs   []jobDef
}

// jobDef is one job as a client submits it: a JSON job spec plus,
// for BBVL jobs, the embedded example model that supplies model_source.
// The id keys the job's entry in the expectation file.
type jobDef struct {
	id    string
	spec  string
	model string
}

// workloads are the benchmark's inputs. Their names are cited by later
// measurements; keep them stable.
var workloads = []workload{
	{
		name: "paper-small",
		why: "the 15 Table II rows at 2x2 plus three Table I k-trace jobs: small instances on both sides " +
			"of the refiner switch, on the sequential explorer; the only workload with explain and k-trace",
		passes: 4,
		jobs:   paperSmallJobs(),
	},
	{
		name:   "msqueue-2x6-ram",
		why:    "one large instance (728,511 states) whose pass is dominated by refinement and the div-sensitive bisimulation check; parallel explorer, all in RAM",
		passes: 4,
		jobs:   []jobDef{msQueue2x6(0)},
	},
	{
		name:   "msqueue-2x6-spill",
		why:    "the same instance under an 8 MiB state-store budget: explore goes through statestore spill files, refinement is unchanged",
		passes: 4,
		jobs:   []jobDef{msQueue2x6(8)},
	},
	{
		name:   "bbvl-reduction",
		why:    "BBVL models with reduction on: the only workload through bbvl, vet layout and reduction analysis and the chain-compressing explorer",
		passes: 4,
		jobs:   bbvlReductionJobs(),
	},
}

// paperSmallJobs checks every Table II row at 2x2 with the default
// checks, then classifies the τ steps of the three Table I objects whose
// (≡₁, ≢₂) step shows at these sizes.
func paperSmallJobs() []jobDef {
	var jobs []jobDef
	for _, a := range algorithms.TableII() {
		jobs = append(jobs, jobDef{
			id:   a.ID + "-2x2",
			spec: fmt.Sprintf(`{"kind": "check", "algorithm": %q, "threads": 2, "ops": 2, "workers": 1}`, a.ID),
		})
	}
	for _, k := range []struct {
		alg          string
		threads, ops int
	}{{"hw-queue", 3, 1}, {"ccas", 2, 3}, {"rdcss", 2, 3}} {
		jobs = append(jobs, jobDef{
			id: fmt.Sprintf("%s-%dx%d-ktrace", k.alg, k.threads, k.ops),
			spec: fmt.Sprintf(`{"kind": "ktrace", "algorithm": %q, "threads": %d, "ops": %d, "workers": 1}`,
				k.alg, k.threads, k.ops),
		})
	}
	return jobs
}

// msQueue2x6 is ms-queue with 2 threads x 6 operations over the value
// universe {1}. Both ms-queue workloads share its id: the budget moves
// bytes, never the answer.
func msQueue2x6(memBudgetMB int) jobDef {
	return jobDef{
		id: "ms-queue-2x6",
		spec: fmt.Sprintf(`{"kind": "check", "algorithm": "ms-queue", "threads": 2, "ops": 6, "vals": [1], "workers": 2, "mem_budget_mb": %d}`,
			memBudgetMB),
	}
}

// bbvlReductionJobs submits the embedded lock-based models at two shapes
// and the lock-free ones at 2-3, as model_source with reduction on.
func bbvlReductionJobs() []jobDef {
	var jobs []jobDef
	for _, m := range []struct {
		model        string
		threads, ops int
	}{
		{"spinlock-stack", 2, 3}, {"spinlock-stack", 3, 2},
		{"spinlock-queue", 2, 3}, {"spinlock-queue", 3, 2},
		{"treiber", 2, 3}, {"msqueue", 2, 3},
	} {
		jobs = append(jobs, jobDef{
			id:    fmt.Sprintf("bbvl-%s-%dx%d", m.model, m.threads, m.ops),
			spec:  fmt.Sprintf(`{"kind": "check", "threads": %d, "ops": %d, "workers": 1, "reduction": true}`, m.threads, m.ops),
			model: m.model,
		})
	}
	return jobs
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have: %s)", name, strings.Join(names, ", "))
}

// job is a decoded, ready-to-submit job.
type job struct {
	id   string
	spec api.JobSpec
}

// loadJobs is a pass's set-up: it decodes every job spec of w strictly
// and loads the BBVL model each model job carries.
func loadJobs(w *workload) ([]job, error) {
	out := make([]job, 0, len(w.jobs))
	for _, d := range w.jobs {
		spec, err := api.DecodeJobSpec(strings.NewReader(d.spec))
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", d.id, err)
		}
		if d.model != "" {
			src, err := bbvlexamples.Source(d.model)
			if err != nil {
				return nil, fmt.Errorf("job %s: %w", d.id, err)
			}
			spec.ModelName = bbvlexamples.Filename(d.model)
			spec.ModelSource = string(src)
			if _, err := bbvl.Load(spec.ModelName, src); err != nil {
				return nil, fmt.Errorf("job %s: %w", d.id, err)
			}
		}
		out = append(out, job{id: d.id, spec: spec})
	}
	return out, nil
}

// passOrder is the job order of one pass: a permutation drawn from the
// benchmark seed and the pass index, so every pass of a run sees another
// order and every run with the same seed sees the same ones.
func passOrder(n int, seed uint64, pass int) []int {
	return rand.New(rand.NewPCG(seed, uint64(pass))).Perm(n)
}

// verdict is what a job's result must reproduce. The verdicts and the
// quotient sizes are pinned: no sound optimisation, reduction included,
// changes them. The raw state counts are recorded only, since a sound
// reduction may shrink them.
type verdict struct {
	Linearizable *bool  `json:"linearizable,omitempty"`
	LockFree     *bool  `json:"lock_free,omitempty"`
	DeadlockFree *bool  `json:"deadlock_free,omitempty"`
	Eq1Neq2      string `json:"eq1_neq2_label,omitempty"`
	ImplQuotient int    `json:"impl_quotient_states"`
	SpecQuotient int    `json:"spec_quotient_states,omitempty"`
	ImplStates   int    `json:"impl_states"`
	SpecStates   int    `json:"spec_states,omitempty"`
}

// pinned renders the fields an expectation pins.
func (v verdict) pinned() string {
	b := func(p *bool) string {
		if p == nil {
			return "-"
		}
		return fmt.Sprint(*p)
	}
	return fmt.Sprintf("linearizable=%s lock_free=%s deadlock_free=%s eq1_neq2=%q quotients=%d/%d",
		b(v.Linearizable), b(v.LockFree), b(v.DeadlockFree), v.Eq1Neq2, v.ImplQuotient, v.SpecQuotient)
}

// verdictOf reads a job's verdict from its wire-form result.
func verdictOf(res *api.Result) verdict {
	switch {
	case res.Check != nil:
		c := res.Check
		v := verdict{
			LockFree:     c.LockFree,
			DeadlockFree: c.DeadlockFree,
			ImplQuotient: c.ImplQuotientStates,
			SpecQuotient: c.SpecQuotientStates,
			ImplStates:   c.ImplStates,
			SpecStates:   c.SpecStates,
		}
		if slices.Contains(c.ChecksRun, api.CheckLinearizability) {
			lin := c.Linearizable
			v.Linearizable = &lin
		}
		return v
	case res.KTrace != nil:
		k := res.KTrace
		return verdict{Eq1Neq2: k.Eq1Neq2Label, ImplQuotient: k.QuotientStates, ImplStates: k.States}
	}
	return verdict{}
}

//go:embed testdata/expect.json
var expectJSON []byte

// expectations maps every job id to the verdict its result must
// reproduce.
func expectations() (map[string]verdict, error) {
	var exp map[string]verdict
	dec := json.NewDecoder(bytes.NewReader(expectJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&exp); err != nil {
		return nil, fmt.Errorf("testdata/expect.json: %w", err)
	}
	return exp, nil
}

// checkVerdict reports a mismatch between got and the expectation for
// job id.
func checkVerdict(exp map[string]verdict, id string, got verdict) error {
	want, ok := exp[id]
	if !ok {
		return fmt.Errorf("job %s: no expectation", id)
	}
	if got.pinned() != want.pinned() {
		return fmt.Errorf("job %s: got %s, want %s", id, got.pinned(), want.pinned())
	}
	return nil
}
