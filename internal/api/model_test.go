package api

import (
	"context"
	"reflect"
	"strings"
	"testing"

	bbvlexamples "repro/examples/bbvl"
	"repro/internal/statecodec"
)

const tinyModel = `model tiny
globals { G: val }
spec stack
method Push(v: vals) { P1: G = v; return ok }
method Pop() { P2: return G }
`

func TestDecodeJobSpecStrict(t *testing.T) {
	spec, err := DecodeJobSpec(strings.NewReader(`{"kind":"check","algorithm":"treiber","threads":2,"ops":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Algorithm != "treiber" || spec.Threads != 2 {
		t.Errorf("spec = %+v", spec)
	}
	if _, err := DecodeJobSpec(strings.NewReader(`{"kind":"check","algorithem":"treiber"}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := DecodeJobSpec(strings.NewReader(`{"kind":"check"} trailing`)); err == nil {
		t.Error("trailing data accepted")
	}
	if _, err := DecodeJobSpec(strings.NewReader(`{"kind":"check"}{"kind":"explore"}`)); err == nil {
		t.Error("second document accepted")
	}
}

func TestCacheKeyModelSource(t *testing.T) {
	base := JobSpec{Kind: KindCheck, Algorithm: "treiber", Threads: 2, Ops: 2}
	m1 := JobSpec{Kind: KindCheck, ModelSource: tinyModel, Threads: 2, Ops: 2}
	m2 := m1
	m2.ModelSource = tinyModel + "# changed\n"
	if base.CacheKey() == m1.CacheKey() {
		t.Error("model job hashes like a registry job")
	}
	if m1.CacheKey() == m2.CacheKey() {
		t.Error("different model sources share a cache key")
	}
	named := m1
	named.ModelName = "other.bbvl"
	if m1.CacheKey() != named.CacheKey() {
		t.Error("model_name (cosmetic) entered the cache key")
	}
}

func TestValidateModelSpec(t *testing.T) {
	good := JobSpec{Kind: KindCheck, ModelSource: tinyModel, Threads: 2, Ops: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid model spec rejected: %v", err)
	}
	both := good
	both.Algorithm = "treiber"
	if err := both.Validate(); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("algorithm+model accepted: %v", err)
	}
	bad := good
	bad.ModelSource = "model broken\nspec stack\nmethod Push(v: vals) { P1: goto X }\nmethod Pop() { P2: return empty }\n"
	err := bad.Validate()
	if err == nil {
		t.Fatal("broken model accepted")
	}
	diags := Diagnostics(err)
	if len(diags) == 0 {
		t.Fatalf("no diagnostics extracted from %v", err)
	}
	if diags[0].File != "model.bbvl" || diags[0].Line != 3 {
		t.Errorf("diagnostic = %+v, want model.bbvl line 3", diags[0])
	}
}

func TestDiagnosticsNonModelError(t *testing.T) {
	spec := JobSpec{Kind: KindCheck, Algorithm: "no-such-algorithm", Threads: 2, Ops: 2}
	err := spec.Validate()
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if d := Diagnostics(err); d != nil {
		t.Errorf("registry error produced diagnostics: %+v", d)
	}
}

func TestRunModelCheck(t *testing.T) {
	res, err := RunBackend(context.Background(), JobSpec{
		Kind: KindCheck, ModelSource: tinyModel, Threads: 2, Ops: 2, Workers: 1,
	}, statecodec.Backend{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Check == nil {
		t.Fatal("no check result")
	}
	// A single shared register without any synchronization is not a
	// linearizable stack (Pop can read a value that was never pushed
	// last); what matters here is that the pipeline ran end to end.
	if res.Check.ImplStates == 0 || res.Check.SpecStates == 0 {
		t.Errorf("empty exploration: %+v", res.Check)
	}
}

func TestRunModelRuntimePanicRecovered(t *testing.T) {
	for _, workers := range []int{1, 2} {
		_, err := RunBackend(context.Background(), JobSpec{
			Kind: KindCheck,
			ModelSource: `model broken
node cell { val: val  next: ptr }
globals { Top: ptr }
spec stack
method Push(v: vals) {
  var t: ptr
  P1: t = Top.next; goto P2
  P2: if cas(Top, t, nil) { return ok } else { goto P1 }
}
method Pop() { P9: return empty }
`,
			Threads: 1, Ops: 1, Workers: workers,
		}, statecodec.Backend{}, nil)
		if err == nil {
			t.Fatalf("workers=%d: runtime nil deref did not fail the job", workers)
		}
		if !strings.Contains(err.Error(), "model runtime error") || !strings.Contains(err.Error(), "model.bbvl:7:11") {
			t.Errorf("workers=%d: err = %v, want positioned model runtime error", workers, err)
		}
	}
}

// TestReductionModelJobsOnly pins that reduction applies to model jobs
// only. A registry row compiled from BBVL carries the IR vet needs, but
// {"algorithm": "ms-queue", "reduction": true} stays the no-op it was
// when the row was an IR-less closure, so stored results replay
// unchanged; the same source submitted as model_source is reduced.
func TestReductionModelJobsOnly(t *testing.T) {
	run := func(spec JobSpec) *CheckResult {
		t.Helper()
		res, err := RunBackend(context.Background(), spec, statecodec.Backend{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Check
	}
	registry := JobSpec{Kind: KindCheck, Algorithm: "ms-queue", Threads: 2, Ops: 2, Workers: 1}
	full := run(registry)
	registry.Reduction = true
	if reduced := run(registry); !reflect.DeepEqual(full, reduced) {
		t.Errorf("registry ms-queue: reduction changed the check section:\n full:    %+v\n reduced: %+v", full, reduced)
	}

	src, err := bbvlexamples.Source("msqueue")
	if err != nil {
		t.Fatal(err)
	}
	model := JobSpec{Kind: KindCheck, ModelSource: string(src), Threads: 2, Ops: 2, Workers: 1, Reduction: true}
	reduced := run(model)
	if reduced.ImplStates >= full.ImplStates {
		t.Errorf("model msqueue: reduction explored %d states, the full registry run %d", reduced.ImplStates, full.ImplStates)
	}
	if reduced.Linearizable != full.Linearizable || reduced.ImplQuotientStates != full.ImplQuotientStates {
		t.Errorf("model msqueue: reduction changed a verdict or quotient: %+v vs %+v", reduced, full)
	}
}

// flagSet is a set of two keys, one flag global each: Add and Remove
// flip the key's flag with one cas and report whether it flipped. Its
// returns are booleans, rendered true/false like the set specification.
const flagSet = `model flagset
globals { F1: val  F2: val }
spec set
method Add(k: vals) {
  A1: if k == 1 { goto A2 } else { goto A3 }
  A2: if cas(F1, 0, 1) { return true } else { return false }
  A3: if cas(F2, 0, 1) { return true } else { return false }
}
method Remove(k: vals) {
  R1: if k == 1 { goto R2 } else { goto R3 }
  R2: if cas(F1, 1, 0) { return true } else { return false }
  R3: if cas(F2, 1, 0) { return true } else { return false }
}
`

// TestSetModelLinearizable: a correct set model verifies. Its returns
// must render as the set specification renders them ("Add(true)", not
// "Add(1)"), or every set model is reported non-linearizable.
func TestSetModelLinearizable(t *testing.T) {
	res, err := RunBackend(context.Background(), JobSpec{
		Kind: KindCheck, ModelSource: flagSet, Threads: 2, Ops: 2, Workers: 1,
	}, statecodec.Backend{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Check.Linearizable {
		t.Errorf("flag set reported non-linearizable: %+v", res.Check)
	}
}
