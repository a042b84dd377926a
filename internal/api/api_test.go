package api

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/statecodec"
	"repro/internal/statestore"
)

// TestCacheKeyWorkersIndependent pins the cache-key contract of the bbvd
// service: the parallel explorer produces a byte-identical LTS for every
// worker count, so two specs differing only in Workers (or TimeoutMS)
// MUST share a cache key, while any field that can change the result —
// the value universe above all — must split it.
func TestCacheKeyWorkersIndependent(t *testing.T) {
	base := JobSpec{Kind: KindCheck, Algorithm: "treiber", Threads: 2, Ops: 2}
	key := base.CacheKey()

	for _, workers := range []int{1, 2, 7, 48} {
		s := base
		s.Workers = workers
		if got := s.CacheKey(); got != key {
			t.Errorf("Workers=%d changed the cache key: %s vs %s", workers, got, key)
		}
	}
	timed := base
	timed.TimeoutMS = 1234
	if got := timed.CacheKey(); got != key {
		t.Errorf("TimeoutMS changed the cache key")
	}
	// The explorer's LTS is byte-identical under any memory budget, so
	// MemBudgetMB must not split the key either.
	for _, mb := range []int{64, 2048} {
		budgeted := base
		budgeted.MemBudgetMB = mb
		if got := budgeted.CacheKey(); got != key {
			t.Errorf("MemBudgetMB=%d changed the cache key", mb)
		}
	}

	vals := base
	vals.Vals = []int32{1, 2, 3}
	if got := vals.CacheKey(); got == key {
		t.Error("a different value universe must change the cache key")
	}
}

// TestCacheKeyNormalization pins that defaulted and explicit spellings
// of the same job hash identically, and every result-bearing field
// splits the key.
func TestCacheKeyNormalization(t *testing.T) {
	base := JobSpec{Kind: KindCheck, Algorithm: "treiber", Threads: 2, Ops: 2}
	key := base.CacheKey()

	explicitVals := base
	explicitVals.Vals = []int32{1, 2}
	if got := explicitVals.CacheKey(); got != key {
		t.Error("nil Vals and the explicit default {1,2} must hash identically")
	}
	explicitMax := base
	explicitMax.MaxStates = machine.DefaultMaxStates
	if got := explicitMax.CacheKey(); got != key {
		t.Error("MaxStates 0 and the explicit default must hash identically")
	}

	for name, mut := range map[string]func(*JobSpec){
		"kind":       func(s *JobSpec) { s.Kind = KindExplore },
		"algorithm":  func(s *JobSpec) { s.Algorithm = "ms-queue" },
		"threads":    func(s *JobSpec) { s.Threads = 3 },
		"ops":        func(s *JobSpec) { s.Ops = 3 },
		"max_states": func(s *JobSpec) { s.MaxStates = 1000 },
		"vals_order": func(s *JobSpec) { s.Vals = []int32{2, 1} },
	} {
		s := base
		mut(&s)
		if s.CacheKey() == key {
			t.Errorf("mutating %s must change the cache key", name)
		}
	}
}

func TestValidate(t *testing.T) {
	for _, bad := range []JobSpec{
		{Kind: "bogus", Algorithm: "treiber", Threads: 2, Ops: 2},
		{Kind: KindCheck, Algorithm: "no-such-alg", Threads: 2, Ops: 2},
		{Kind: KindCheck, Algorithm: "treiber", Threads: -1, Ops: 2},
		{Kind: KindCheck, Algorithm: "treiber", Threads: 2, Ops: 2, TimeoutMS: -5},
		{Kind: KindCheck, Algorithm: "treiber", Threads: 2, Ops: 2, MemBudgetMB: -1},
		// Treiber's stack has no abstract program for Theorem 5.8.
		{Kind: KindCheck, Algorithm: "treiber", Threads: 2, Ops: 2, Checks: []string{CheckAbstract}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("spec %+v must not validate", bad)
		}
	}
	for _, ok := range []JobSpec{
		{Kind: KindKTrace, Algorithm: "treiber", Threads: 2, Ops: 1},
		{Kind: KindCheck, Algorithm: "ms-queue", Threads: 2, Ops: 1, Checks: []string{CheckAbstract}},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("valid spec rejected: %v", err)
		}
	}
}

// TestRunKinds exercises each job kind on a small passing instance and
// the check kind on the paper's buggy HM list, whose counterexample must
// ride along in the result.
func TestRunKinds(t *testing.T) {
	ctx := context.Background()

	res, err := RunBackend(ctx, JobSpec{Kind: KindCheck, Algorithm: "treiber", Threads: 2, Ops: 1}, statecodec.Backend{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Check == nil || !res.Check.Linearizable || res.Check.LockFree == nil || !*res.Check.LockFree {
		t.Fatalf("treiber 2x1 must pass both checks: %+v", res.Check)
	}
	if res.StatesExplored() <= 0 {
		t.Error("check result must report explored states")
	}

	res, err = RunBackend(ctx, JobSpec{Kind: KindExplore, Algorithm: "treiber", Threads: 2, Ops: 1}, statecodec.Backend{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Explore == nil || res.Explore.States == 0 || res.Explore.QuotientStates == 0 {
		t.Fatalf("explore result incomplete: %+v", res.Explore)
	}

	res, err = RunBackend(ctx, JobSpec{Kind: KindKTrace, Algorithm: "treiber", Threads: 2, Ops: 1}, statecodec.Backend{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.KTrace == nil || !res.KTrace.Converged {
		t.Fatalf("ktrace result incomplete: %+v", res.KTrace)
	}

	res, err = RunBackend(ctx, JobSpec{Kind: KindCheck, Algorithm: "hm-list-buggy", Threads: 2, Ops: 2}, statecodec.Backend{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Check.Linearizable {
		t.Fatal("the buggy HM list must not be linearizable")
	}
	if len(res.Check.LinCounterexample) == 0 {
		t.Fatal("a failing check must carry the counterexample history")
	}
}

// TestRunMemBudgetSameVerdict pins that a memory-budgeted job (run on
// the platform backend — the pure runner has no spill store to honor a
// budget with) reports the same verdict and sizes as the unbudgeted
// pure one, and that explore stages surface the storage telemetry.
func TestRunMemBudgetSameVerdict(t *testing.T) {
	ctx := context.Background()
	free, err := RunBackend(ctx, JobSpec{Kind: KindCheck, Algorithm: "treiber", Threads: 2, Ops: 1}, statecodec.Backend{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := RunBackend(ctx, JobSpec{Kind: KindCheck, Algorithm: "treiber", Threads: 2, Ops: 1, MemBudgetMB: 1},
		statestore.Runtime(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if free.Check.Linearizable != tight.Check.Linearizable ||
		free.Check.ImplStates != tight.Check.ImplStates ||
		free.Check.ImplQuotientStates != tight.Check.ImplQuotientStates {
		t.Fatalf("budgeted verdict diverged: %+v vs %+v", free.Check, tight.Check)
	}
	sawExplore := false
	for _, st := range tight.Stages {
		if st.Stage != "explore" {
			continue
		}
		sawExplore = true
		if st.BytesPerState <= 0 {
			t.Fatalf("explore stage missing storage telemetry: %+v", st)
		}
	}
	if !sawExplore {
		t.Fatal("no explore stage in the result")
	}
}

// TestRunPureOmitsPeakRSS pins the telemetry contract of the pure
// runner: without a platform probe the peak RSS is unknown, stages
// carry 0 and the wire form omits the field entirely — clients must
// never see "peak_rss_bytes": 0 rendered as a bogus "0 B" measurement.
// On Linux the platform backend measures a real, positive RSS.
func TestRunPureOmitsPeakRSS(t *testing.T) {
	ctx := context.Background()
	pure, err := RunBackend(ctx, JobSpec{Kind: KindCheck, Algorithm: "treiber", Threads: 2, Ops: 1}, statecodec.Backend{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range pure.Stages {
		if st.PeakRSSBytes != 0 {
			t.Fatalf("pure run reported a peak RSS it cannot know: %+v", st)
		}
	}
	var buf strings.Builder
	if err := EncodeResult(&buf, pure); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "peak_rss_bytes") {
		t.Fatal("pure result JSON must omit peak_rss_bytes, not report 0")
	}

	if rss := statestore.Runtime().ProcessPeakRSS(); runtime.GOOS == "linux" && rss <= 0 {
		t.Fatalf("Linux platform probe returned %d, want a positive RSS", rss)
	}
	probed, err := RunBackend(ctx, JobSpec{Kind: KindCheck, Algorithm: "treiber", Threads: 2, Ops: 1},
		statestore.Runtime(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS == "linux" {
		for _, st := range probed.Stages {
			if st.Stage == "explore" && st.PeakRSSBytes <= 0 {
				t.Fatalf("platform-backed explore stage lost its RSS telemetry: %+v", st)
			}
		}
	}
}

// TestRunCanceled pins that a canceled context aborts a job with a typed
// cancellation error that unwraps to context.Canceled.
func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunBackend(ctx, JobSpec{Kind: KindCheck, Algorithm: "ms-queue", Threads: 2, Ops: 2}, statecodec.Backend{}, nil)
	if err == nil {
		t.Fatal("run under a canceled context must fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v must unwrap to context.Canceled", err)
	}
	var ce *machine.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v must carry machine.CanceledError", err)
	}
}

// TestCacheKeyRefinerIndependent pins that old job specs keep working
// after the refiner knob was removed: the deprecated "refiner" field must
// still decode under the strict decoder, validate for every name it used
// to accept, hash to the same cache key and produce the same result JSON
// (modulo wall-clock telemetry), while an unknown name still fails
// validation rather than silently run.
func TestCacheKeyRefinerIndependent(t *testing.T) {
	decode := func(ref string) JobSpec {
		t.Helper()
		s, err := DecodeJobSpec(strings.NewReader(`{"kind":"check","algorithm":"treiber","threads":2,"ops":2,"refiner":"` + ref + `"}`))
		if err != nil {
			t.Fatalf("refiner=%q must decode: %v", ref, err)
		}
		return s
	}
	base := JobSpec{Kind: KindCheck, Algorithm: "treiber", Threads: 2, Ops: 2}
	key := base.CacheKey()
	var want []byte
	for _, ref := range []string{"", "auto", "signature", "splitter"} {
		s := decode(ref)
		if got := s.CacheKey(); got != key {
			t.Errorf("refiner=%q changed the cache key", ref)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("refiner=%q must validate: %v", ref, err)
		}
		res, err := RunBackend(context.Background(), s, statecodec.Backend{}, nil)
		if err != nil {
			t.Fatalf("refiner=%q: %v", ref, err)
		}
		res.ElapsedMS = 0
		for i := range res.Stages {
			res.Stages[i].ElapsedUS = 0
			res.Stages[i].StatesPerSec = 0
		}
		var buf bytes.Buffer
		if err := EncodeResult(&buf, res); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("refiner=%q changed the result JSON:\n%s\nwant:\n%s", ref, buf.Bytes(), want)
		}
	}
	bad := decode("bogus")
	if err := bad.Validate(); err == nil {
		t.Error("an unknown refiner name must fail validation")
	}
}

// TestRunCheckCarriesExperiment: a failing linearizability job carries
// the distinguishing experiment between the quotients in the wire
// result, alongside the trace counterexample.
func TestRunCheckCarriesExperiment(t *testing.T) {
	res, err := RunBackend(context.Background(), JobSpec{Kind: KindCheck, Algorithm: "hm-list-buggy", Threads: 2, Ops: 2}, statecodec.Backend{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Check.Linearizable {
		t.Fatal("the buggy HM list must not be linearizable")
	}
	exp := res.Check.Distinguishing
	if exp == nil || exp.Kind != "branching" || exp.Round < 1 || len(exp.Steps) == 0 || len(exp.Steps) > exp.Round {
		t.Fatalf("failing check must carry a well-formed experiment, got %+v", exp)
	}
	pass, err := RunBackend(context.Background(), JobSpec{Kind: KindCheck, Algorithm: "treiber", Threads: 2, Ops: 1}, statecodec.Backend{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pass.Check.Distinguishing != nil {
		t.Error("a passing check must not carry an experiment")
	}
}
