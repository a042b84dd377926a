package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/api"
	"repro/internal/bbvl"
	"repro/internal/statestore"
)

func TestWorkloadSpecsDecodeStrictly(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		jobs, err := loadJobs(w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		seen := map[string]bool{}
		for _, j := range jobs {
			if seen[j.id] {
				t.Errorf("%s: duplicate job id %s", w.name, j.id)
			}
			seen[j.id] = true
			spec := j.spec
			spec.Normalize()
			if err := spec.Validate(); err != nil {
				t.Errorf("%s/%s: %v", w.name, j.id, err)
			}
			if spec.Workers < 1 || spec.Workers > 2 {
				t.Errorf("%s/%s: workers = %d, want 1 or 2", w.name, j.id, spec.Workers)
			}
		}
	}
	if _, err := api.DecodeJobSpec(strings.NewReader(`{"kind": "check", "algorithm": "treiber", "worker": 1}`)); err == nil {
		t.Error("a misspelled field decoded without error")
	}
}

// TestExpectationsCoverEveryJob pins the expectation file to the jobs
// and to the paper: the registry's Expect* verdicts and Table I's labels.
func TestExpectationsCoverEveryJob(t *testing.T) {
	exp, err := expectations()
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	tableI := map[string]string{"hw-queue": "t2.E2", "ccas": "t1.C2", "rdcss": "t1.R2"}
	for i := range workloads {
		jobs, err := loadJobs(&workloads[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			want, ok := exp[j.id]
			if !ok {
				t.Errorf("job %s has no expectation", j.id)
				continue
			}
			used[j.id] = true
			lockBased := false
			switch {
			case j.spec.Kind == api.KindKTrace:
				if want.Eq1Neq2 != tableI[j.spec.Algorithm] {
					t.Errorf("%s: eq1_neq2_label = %q, Table I gives %q", j.id, want.Eq1Neq2, tableI[j.spec.Algorithm])
				}
				continue
			case j.spec.ModelSource != "":
				m, err := bbvl.Load(j.spec.ModelName, []byte(j.spec.ModelSource))
				if err != nil {
					t.Fatal(err)
				}
				lockBased = m.LockBased
				if want.Linearizable == nil || !*want.Linearizable {
					t.Errorf("%s: the example models are linearizable", j.id)
				}
			default:
				a, err := algorithms.ByID(j.spec.Algorithm)
				if err != nil {
					t.Fatal(err)
				}
				lockBased = a.LockBased
				if want.Linearizable == nil || *want.Linearizable != a.ExpectLinearizable {
					t.Errorf("%s: linearizable does not match the registry's %v", j.id, a.ExpectLinearizable)
				}
				if !lockBased && (want.LockFree == nil || *want.LockFree != a.ExpectLockFree) {
					t.Errorf("%s: lock_free does not match the registry's %v", j.id, a.ExpectLockFree)
				}
			}
			if lockBased && (want.DeadlockFree == nil || !*want.DeadlockFree || want.LockFree != nil) {
				t.Errorf("%s: a lock-based object must expect deadlock_free=true and no lock_free verdict", j.id)
			}
			if want.ImplQuotient <= 0 || want.SpecQuotient <= 0 {
				t.Errorf("%s: quotient sizes must be pinned", j.id)
			}
		}
	}
	for id := range exp {
		if !used[id] {
			t.Errorf("expectation %s matches no job", id)
		}
	}
}

// TestTracedCompositionMatchesRunBackend holds the traced pass to the
// call it re-composes: same verdicts, quotient sizes and state counts.
func TestTracedCompositionMatchesRunBackend(t *testing.T) {
	type instance struct{ spec, model string }
	for _, in := range []instance{
		{spec: `{"kind": "check", "algorithm": "treiber", "threads": 2, "ops": 2, "workers": 1}`},
		{spec: `{"kind": "check", "algorithm": "hm-list-buggy", "threads": 2, "ops": 2, "workers": 1}`},
		{spec: `{"kind": "check", "threads": 2, "ops": 2, "workers": 1, "reduction": true}`, model: "spinlock-stack"},
		{spec: `{"kind": "check", "algorithm": "ms-queue", "threads": 2, "ops": 3, "vals": [1], "workers": 2, "mem_budget_mb": 1}`},
		{spec: `{"kind": "ktrace", "algorithm": "ccas", "threads": 2, "ops": 3, "workers": 1}`},
	} {
		w := &workload{name: "test", jobs: []jobDef{{id: in.spec + in.model, spec: in.spec, model: in.model}}}
		jobs, err := loadJobs(w)
		if err != nil {
			t.Fatal(err)
		}
		backend := statestore.Runtime()
		want, err := submit(jobs[0].spec, backend)
		if err != nil {
			t.Fatalf("%s: %v", in.spec, err)
		}
		res := runTracedPass(jobs, []int{0}, backend)
		got := res.Jobs[0]
		if got.Error != "" {
			t.Fatalf("%s: traced: %s", in.spec, got.Error)
		}
		if fmt.Sprint(got.Verdict.pinned(), got.Verdict.ImplStates, got.Verdict.SpecStates) !=
			fmt.Sprint(want.pinned(), want.ImplStates, want.SpecStates) {
			t.Errorf("%s:\ntraced      %s impl=%d spec=%d\nRunBackend  %s impl=%d spec=%d", in.spec,
				got.Verdict.pinned(), got.Verdict.ImplStates, got.Verdict.SpecStates,
				want.pinned(), want.ImplStates, want.SpecStates)
		}
		names := map[string]bool{}
		for _, s := range res.Spans {
			names[s.Name] = true
			if s.End < s.Start || s.Parent >= s.ID {
				t.Errorf("%s: malformed span %+v", in.spec, s)
			}
		}
		for _, n := range []string{"job", "vet.layout", "machine.explore", "bisim.refine", "bisim.quotient", "probe", "lts.tau_scc", "lts.tau_collapse"} {
			if !names[n] {
				t.Errorf("%s: no %s span", in.spec, n)
			}
		}
		if in.model != "" && !names["bbvl.load"] {
			t.Errorf("%s: no bbvl.load span", in.spec)
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json, which the
// benchmark's runner reads, in step with what the harness emits.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []boundDef                    `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, got []metricDef, want []metricDef) {
		if !slices.Equal(got, want) {
			t.Errorf("%s metrics: BENCHMARK.json has %v, the harness %v", kind, got, want)
		}
	}
	var e2e, layers []metricDef
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bench.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layers, perLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestRunValueIsMedianButMinMeanForPeakRSS(t *testing.T) {
	xs := []float64{102, 100, 124, 110}
	if got := summarizePasses(metricDef{"pass_s", "s"}, xs).Value; got != 106 {
		t.Errorf("pass_s: value %v, want the median 106", got)
	}
	if got := summarizePasses(metricDef{"peak_rss_mib", "MiB"}, xs).Value; got != 104.5 {
		t.Errorf("peak_rss_mib: value %v, want (least 100 + mean 109) / 2 = 104.5", got)
	}
}

func TestJudge(t *testing.T) {
	def := boundDef{Name: "pass_s", Unit: "s", Better: "lower", Bound: 0.1}
	steady := func(base float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + 0.01*float64(i%3)
		}
		return xs
	}
	noisy := []float64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2}
	for _, c := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"same", steady(1), steady(1.02), statusSame},
		{"regression", steady(1), steady(1.2), statusRegression},
		{"gain", steady(1), steady(0.8), statusGain},
		{"too few pairs for a gain", steady(1)[:5], steady(0.8)[:5], statusSame},
		{"unresolved", noisy, noisy, statusUnresolved},
		{"noisy but every change run better", noisy, steady(0.2), statusGain},
	} {
		if got := judge(def, c.parent, c.change).Status; got != c.want {
			t.Errorf("%s: status %s, want %s", c.name, got, c.want)
		}
	}
	fails := boundDef{Name: "fail_ratio", Unit: "ratio", Better: "lower"}
	if got := judge(fails, steady(0)[:1], []float64{0.01}).Status; got != statusRegression {
		t.Errorf("fail_ratio increase: status %s, want %s", got, statusRegression)
	}
}

func TestPassOrderIsSeeded(t *testing.T) {
	a, b := passOrder(18, 1, 0), passOrder(18, 1, 0)
	if !slices.Equal(a, b) {
		t.Errorf("same seed and pass gave %v and %v", a, b)
	}
	if slices.Equal(a, passOrder(18, 1, 1)) && slices.Equal(a, passOrder(18, 2, 0)) {
		t.Errorf("pass index and seed do not change the order")
	}
}
