package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
)

// vetWarningModel trips the τ-cycle analyzer (Pop can spin on Flag
// solo) but carries no error-severity findings, so the job runs.
const vetWarningModel = `model taucycle
globals { Flag: val }
spec stack
method Push(v: vals) {
  P1: Flag = 1; return ok
}
method Pop() {
  Q1: if Flag == 1 { return empty }; goto Q1
}
`

// vetErrorModel has a Pop with no reachable return — a specshape
// error, so the daemon must refuse to run it.
const vetErrorModel = `model noreturn
globals { G: val }
spec stack
method Push(v: vals) {
  P1: G = v; return ok
}
method Pop() {
  Q1: if G == 0 { goto Q1 }; goto Q1
}
`

// TestVetErrorJobRejected checks a model with an error-severity vet
// finding is rejected at submission with a positioned diagnostic, the
// same shape parse and type errors use.
func TestVetErrorJobRejected(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	spec := api.JobSpec{
		Kind: api.KindCheck, ModelSource: vetErrorModel, ModelName: "noreturn.bbvl",
		Threads: 2, Ops: 2, Workers: 1,
	}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var eb struct {
		Error       string           `json:"error"`
		Diagnostics []api.Diagnostic `json:"diagnostics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, "vet found 1 error") {
		t.Errorf("error = %q, want vet error count", eb.Error)
	}
	var found bool
	for _, d := range eb.Diagnostics {
		if strings.Contains(d.Msg, "[specshape]") {
			found = true
			if d.File != "noreturn.bbvl" || d.Line == 0 || d.Col == 0 {
				t.Errorf("specshape diagnostic not positioned: %+v", d)
			}
			if !strings.Contains(d.Msg, "error: ") || !strings.Contains(d.Msg, "no reachable return") {
				t.Errorf("diagnostic msg = %q", d.Msg)
			}
		}
	}
	if !found {
		t.Fatalf("no specshape diagnostic in %+v", eb.Diagnostics)
	}
}

// TestVetWarningsSurfaced checks warning-severity findings ride along
// on the job result (including cache hits, without re-running the
// pass) and are counted in the metrics, while warning-free results
// keep their exact wire shape.
func TestVetWarningsSurfaced(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	spec := api.JobSpec{
		Kind: api.KindCheck, ModelSource: vetWarningModel, ModelName: "taucycle.bbvl",
		Threads: 2, Ops: 2, Workers: 1,
	}

	view := postJob(t, hs.URL, spec, http.StatusAccepted)
	view = pollDone(t, hs.URL, view.ID)
	if view.Status != StatusDone {
		t.Fatalf("job %s: %s", view.Status, view.Error)
	}
	checkWarnings := func(view *JobView) {
		t.Helper()
		if view.Result == nil || len(view.Result.Warnings) == 0 {
			t.Fatalf("no warnings on result: %+v", view.Result)
		}
		w := view.Result.Warnings[0]
		if w.Analyzer != "taucycle" || w.Severity != "warning" || w.Method != "Pop" ||
			w.File != "taucycle.bbvl" || w.Line == 0 {
			t.Errorf("warning = %+v, want positioned taucycle warning on Pop", w)
		}
	}
	checkWarnings(view)

	metrics := func() string {
		t.Helper()
		resp, err := http.Get(hs.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return string(raw)
	}
	if m := metrics(); !strings.Contains(m, `bbvd_vet_findings_total{analyzer="taucycle"} 1`) {
		t.Errorf("metrics missing taucycle vet counter:\n%s", m)
	}

	// Resubmitting the identical spec is a cache hit: the stored result
	// still carries the warnings, and the pass is not re-run, so the
	// metric must not move.
	hit := postJob(t, hs.URL, spec, http.StatusOK)
	if hit.Status != StatusDone {
		t.Fatalf("cache hit status = %s", hit.Status)
	}
	checkWarnings(hit)
	if m := metrics(); !strings.Contains(m, `bbvd_vet_findings_total{analyzer="taucycle"} 1`) {
		t.Errorf("cache hit re-counted vet findings:\n%s", m)
	}

	// A clean model's result must not grow a warnings key at all —
	// its serialized form is byte-identical to the pre-vet wire shape.
	clean := postJob(t, hs.URL, api.JobSpec{
		Kind: api.KindCheck, ModelSource: exampleModel(t, "treiber.bbvl"),
		ModelName: "treiber.bbvl", Threads: 2, Ops: 2, Workers: 1,
	}, http.StatusAccepted)
	clean = pollDone(t, hs.URL, clean.ID)
	if clean.Status != StatusDone {
		t.Fatalf("clean job %s: %s", clean.Status, clean.Error)
	}
	raw, err := json.Marshal(clean.Result)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"warnings"`) {
		t.Errorf("clean result serializes a warnings key: %s", raw)
	}
}

// TestAnalyzersEndpoint checks GET /v1/analyzers serves the catalogue.
func TestAnalyzersEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(hs.URL + "/v1/analyzers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []struct {
		ID          string `json:"id"`
		Severity    string `json:"severity"`
		Description string `json:"description"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	want := []string{"deadguard", "overflow", "specshape", "taucycle", "unreachable", "unusedvar"}
	if len(infos) != len(want) {
		t.Fatalf("got %d analyzers, want %d", len(infos), len(want))
	}
	for i, in := range infos {
		if in.ID != want[i] {
			t.Errorf("analyzer[%d] = %s, want %s", i, in.ID, want[i])
		}
		if in.Description == "" || in.Severity == "" {
			t.Errorf("analyzer %s missing severity or description", in.ID)
		}
	}
}

// countVets replaces the vet pass with one that counts its calls and
// the most passes ever in flight at once, holding each pass open for a
// moment so that concurrent submissions overlap.
func countVets(t *testing.T) (calls, maxInFlight *atomic.Int64) {
	calls, maxInFlight = new(atomic.Int64), new(atomic.Int64)
	var inFlight atomic.Int64
	prev := vetSpec
	vetSpec = func(spec api.JobSpec) ([]api.VetFinding, error) {
		calls.Add(1)
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			m := maxInFlight.Load()
			if n <= m || maxInFlight.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		return prev(spec)
	}
	t.Cleanup(func() { vetSpec = prev })
	return calls, maxInFlight
}

// TestSubmitBoundsConcurrentVets checks that a burst of distinct
// submissions never runs more than Config.Workers vet passes at once,
// that every job still completes, and that a cache hit skips the pass.
func TestSubmitBoundsConcurrentVets(t *testing.T) {
	calls, maxInFlight := countVets(t)
	const workers, burst = 2, 12
	s, hs := newTestServer(t, Config{Workers: workers, QueueDepth: 64})
	specs := make([]api.JobSpec, burst)
	for i := range specs {
		specs[i] = api.JobSpec{Kind: api.KindCheck, Algorithm: "treiber", Threads: 2, Ops: 1, MaxStates: 100000 + i}
	}
	ids := make([]string, burst)
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			view, err := s.Submit(specs[i])
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = view.ID
		}(i)
	}
	wg.Wait()
	if got := maxInFlight.Load(); got > workers {
		t.Fatalf("%d vet passes ran at once, want at most %d", got, workers)
	}
	if got := calls.Load(); got != burst {
		t.Fatalf("%d vet passes for %d distinct submissions", got, burst)
	}
	for _, id := range ids {
		if id == "" {
			continue
		}
		if v := pollDone(t, hs.URL, id); v.Status != StatusDone {
			t.Fatalf("job %s ended %s: %s", id, v.Status, v.Error)
		}
	}
	view, err := s.Submit(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !view.Cached || view.Status != StatusDone {
		t.Fatalf("resubmission not answered from the cache: %+v", view)
	}
	if got := calls.Load(); got != burst {
		t.Fatalf("a cache hit ran the vet pass (%d passes for %d jobs)", got, burst)
	}
}

// TestSubmitQueueFullSkipsVet checks that a submission arriving at a
// full queue is rejected with ErrQueueFull before it is vetted.
func TestSubmitQueueFullSkipsVet(t *testing.T) {
	calls, _ := countVets(t)
	// A server with no worker draining its one-slot queue: once the
	// slot is taken, the queue stays full.
	s := &Server{
		cfg:      Config{Workers: 1, QueueDepth: 1}.withDefaults(),
		queue:    make(chan *job, 1),
		vetSlots: make(chan struct{}, 1),
		jobs:     make(map[string]*job),
		cache:    newResultCache(8, 1<<20),
		events:   newEventHub(),
	}
	if _, err := s.Submit(api.JobSpec{Kind: api.KindCheck, Algorithm: "treiber", Threads: 2, Ops: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(api.JobSpec{Kind: api.KindCheck, Algorithm: "ms-queue", Threads: 2, Ops: 1})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit to a full queue: %v, want ErrQueueFull", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d vet passes, want 1: the rejected submission was vetted", got)
	}
}
