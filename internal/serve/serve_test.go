package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
)

func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := mustNew(t, cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

// postJob submits spec and decodes the JobView, asserting the expected
// HTTP status.
func postJob(t *testing.T, base string, spec api.JobSpec, wantCode int) *JobView {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("POST /v1/jobs = %d, want %d; body: %s", resp.StatusCode, wantCode, raw)
	}
	if wantCode >= 400 {
		return nil
	}
	var view JobView
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatalf("bad JobView %s: %v", raw, err)
	}
	return &view
}

// pollDone polls GET /v1/jobs/{id} until the job reaches a terminal
// status.
func pollDone(t *testing.T, base, id string) *JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var view JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if view.Status.Terminal() {
			return &view
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish within 30s", id)
	return nil
}

func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(raw), "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, name+" %g", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, raw)
	return 0
}

// TestSubmitPollResult is the end-to-end happy path: a passing
// algorithm runs to "done" with the full verdict, a buggy one reports
// non-linearizable with the counterexample history attached.
func TestSubmitPollResult(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})

	view := postJob(t, hs.URL, api.JobSpec{
		Kind: api.KindCheck, Algorithm: "treiber", Threads: 2, Ops: 1,
	}, http.StatusAccepted)
	if view.Status != StatusQueued {
		t.Fatalf("fresh job status = %s, want queued", view.Status)
	}
	if view.CacheKey == "" {
		t.Fatal("job view must carry its cache key")
	}
	done := pollDone(t, hs.URL, view.ID)
	if done.Status != StatusDone || done.Result == nil || done.Result.Check == nil {
		t.Fatalf("job did not complete with a result: %+v", done)
	}
	if !done.Result.Check.Linearizable {
		t.Fatal("treiber 2x1 must verify linearizable")
	}
	if done.Result.Check.LockFree == nil || !*done.Result.Check.LockFree {
		t.Fatal("treiber 2x1 must verify lock-free")
	}

	bad := postJob(t, hs.URL, api.JobSpec{
		Kind: api.KindCheck, Algorithm: "hm-list-buggy", Threads: 2, Ops: 2,
	}, http.StatusAccepted)
	done = pollDone(t, hs.URL, bad.ID)
	if done.Status != StatusDone {
		t.Fatalf("buggy-algorithm job must still complete: %+v", done)
	}
	if done.Result.Check.Linearizable {
		t.Fatal("hm-list-buggy 2x2 must not be linearizable")
	}
	if len(done.Result.Check.LinCounterexample) == 0 {
		t.Fatal("failing check must carry the counterexample history")
	}
	exp := done.Result.Check.Distinguishing
	if exp == nil || exp.Round < 1 || len(exp.Steps) == 0 || len(exp.Steps) > exp.Round {
		t.Fatalf("failing check must carry a distinguishing experiment of at most Round steps, got %+v", exp)
	}
}

// TestCacheHit pins the acceptance criterion: a repeated identical POST
// is answered from the cache, observable both in the response (200,
// cached, result inline) and in /metrics. A spec differing only in
// Workers shares the canonical key and also hits.
func TestCacheHit(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	spec := api.JobSpec{Kind: api.KindCheck, Algorithm: "treiber", Threads: 2, Ops: 1, Workers: 2}

	first := postJob(t, hs.URL, spec, http.StatusAccepted)
	pollDone(t, hs.URL, first.ID)
	if got := metricValue(t, hs.URL, "bbvd_cache_hits_total"); got != 0 {
		t.Fatalf("cache_hits_total = %v before any repeat", got)
	}

	second := postJob(t, hs.URL, spec, http.StatusOK)
	if !second.Cached || second.Status != StatusDone || second.Result == nil {
		t.Fatalf("repeat submission must be served from cache: %+v", second)
	}
	if second.ID == first.ID {
		t.Fatal("cache hits still get fresh job IDs")
	}

	differentWorkers := spec
	differentWorkers.Workers = 7
	third := postJob(t, hs.URL, differentWorkers, http.StatusOK)
	if !third.Cached {
		t.Fatal("a spec differing only in Workers must hit the cache")
	}

	if got := metricValue(t, hs.URL, "bbvd_cache_hits_total"); got != 2 {
		t.Fatalf("cache_hits_total = %v, want 2", got)
	}
	if got := metricValue(t, hs.URL, "bbvd_cache_misses_total"); got != 1 {
		t.Fatalf("cache_misses_total = %v, want 1", got)
	}

	differentVals := spec
	differentVals.Vals = []int32{1, 2, 3}
	fourth := postJob(t, hs.URL, differentVals, http.StatusAccepted)
	if fourth.Cached {
		t.Fatal("a different value universe must miss the cache")
	}
	pollDone(t, hs.URL, fourth.ID)
}

// TestTimeoutCancelsInFlight pins the other acceptance criterion: a job
// with a short timeout cancels its in-flight exploration — status
// "canceled", not a hang or a result — without leaking goroutines.
func TestTimeoutCancelsInFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	s := mustNew(t, Config{Workers: 1})
	hs := httptest.NewServer(s.Handler())

	// ms-queue 3x3 explores for much longer than 25ms.
	view := postJob(t, hs.URL, api.JobSpec{
		Kind: api.KindCheck, Algorithm: "ms-queue", Threads: 3, Ops: 3,
		TimeoutMS: 25,
	}, http.StatusAccepted)
	start := time.Now()
	done := pollDone(t, hs.URL, view.ID)
	if done.Status != StatusCanceled {
		t.Fatalf("timed-out job status = %s, want canceled (error %q)", done.Status, done.Error)
	}
	if done.Error == "" {
		t.Fatal("canceled job must carry the cancellation error")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v; the exploration did not stop mid-flight", elapsed)
	}
	if got := metricValue(t, hs.URL, "bbvd_jobs_canceled_total"); got != 1 {
		t.Fatalf("jobs_canceled_total = %v, want 1", got)
	}

	hs.Close()
	s.Close()
	// Goroutine count settles once workers and the HTTP server exit.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestClientCancel covers DELETE for both lifecycle stages: a queued
// job flips to canceled immediately; a running job is canceled via its
// context.
func TestClientCancel(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1})

	// Occupy the single worker with a long exploration.
	long := postJob(t, hs.URL, api.JobSpec{
		Kind: api.KindCheck, Algorithm: "ms-queue", Threads: 3, Ops: 3,
	}, http.StatusAccepted)
	waitStatus(t, s, long.ID, StatusRunning)

	queued := postJob(t, hs.URL, api.JobSpec{
		Kind: api.KindCheck, Algorithm: "treiber", Threads: 2, Ops: 1,
	}, http.StatusAccepted)

	for _, id := range []string{queued.ID, long.ID} {
		req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %s = %d", id, resp.StatusCode)
		}
	}
	if v := pollDone(t, hs.URL, queued.ID); v.Status != StatusCanceled {
		t.Fatalf("canceled queued job status = %s", v.Status)
	}
	if v := pollDone(t, hs.URL, long.ID); v.Status != StatusCanceled {
		t.Fatalf("canceled running job status = %s", v.Status)
	}

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/no-such-job", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown job = %d, want 404", resp.StatusCode)
	}
}

func waitStatus(t *testing.T, s *Server, id string, want Status) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		v, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status == want || v.Status.Terminal() {
			if v.Status != want {
				t.Fatalf("job %s reached %s, wanted %s", id, v.Status, want)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

// TestQueueFull pins backpressure: with the worker busy and the bounded
// queue at capacity, submission fails fast with 503 + Retry-After.
func TestQueueFull(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	long := postJob(t, hs.URL, api.JobSpec{
		Kind: api.KindCheck, Algorithm: "ms-queue", Threads: 3, Ops: 3,
	}, http.StatusAccepted)
	waitStatus(t, s, long.ID, StatusRunning)

	// Fills the only queue slot.
	postJob(t, hs.URL, api.JobSpec{
		Kind: api.KindCheck, Algorithm: "treiber", Threads: 2, Ops: 1,
	}, http.StatusAccepted)

	body, _ := json.Marshal(api.JobSpec{Kind: api.KindCheck, Algorithm: "ms-queue", Threads: 2, Ops: 1})
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overfull queue POST = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 must carry Retry-After")
	}

	if _, err := s.Cancel(long.ID); err != nil {
		t.Fatal(err)
	}
}

// TestBadRequests covers spec validation surfaced over HTTP.
func TestBadRequests(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})

	for name, body := range map[string]string{
		"unknown algorithm": `{"kind":"check","algorithm":"no-such-alg"}`,
		"unknown kind":      `{"kind":"frobnicate","algorithm":"treiber"}`,
		"unknown field":     `{"kind":"check","algorithm":"treiber","bogus":1}`,
		"not json":          `}{`,
		"oversized":         `{"kind":"check","algorithm":"treiber","threads":100000000,"ops":1,"max_states":10}`,
	} {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: POST = %d, want 400", name, resp.StatusCode)
		}
	}

	resp, err := http.Get(hs.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d, want 404", resp.StatusCode)
	}
}

// TestListAlgorithmsAndHealth smoke-tests the remaining read-only
// routes.
func TestListAlgorithmsAndHealth(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}

	resp, err = http.Get(hs.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	var algs []api.AlgorithmInfo
	json.NewDecoder(resp.Body).Decode(&algs)
	resp.Body.Close()
	if len(algs) == 0 {
		t.Fatal("algorithm registry is empty")
	}
	found := false
	for _, a := range algs {
		if a.ID == "treiber" {
			found = true
		}
	}
	if !found {
		t.Fatal("registry must list the treiber stack")
	}

	resp, err = http.Get(hs.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobView
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 0 {
		t.Fatalf("fresh server must list no jobs, got %d", len(list))
	}
}

// TestConcurrentSubmissions stress-tests the queue, cache and metrics
// under concurrent clients (meaningful under -race). Every submission
// either completes or is rejected with the queue-full sentinel; the
// terminal counters must add up.
func TestConcurrentSubmissions(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 4, QueueDepth: 256})

	specs := []api.JobSpec{
		{Kind: api.KindCheck, Algorithm: "treiber", Threads: 2, Ops: 1},
		{Kind: api.KindExplore, Algorithm: "treiber", Threads: 2, Ops: 1},
		{Kind: api.KindCheck, Algorithm: "ms-queue", Threads: 2, Ops: 1},
		{Kind: api.KindExplore, Algorithm: "ms-queue", Threads: 2, Ops: 1},
	}
	const clients = 8
	const perClient = 6
	var wg sync.WaitGroup
	ids := make(chan string, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				spec := specs[(c+i)%len(specs)]
				spec.Workers = 1 + c%3 // must not affect caching
				view, err := s.Submit(spec)
				if err != nil {
					if !errors.Is(err, ErrQueueFull) {
						t.Errorf("submit: %v", err)
					}
					continue
				}
				ids <- view.ID
			}
		}(c)
	}
	wg.Wait()
	close(ids)

	var done, canceled int
	for id := range ids {
		v := pollDone(t, hs.URL, id)
		switch v.Status {
		case StatusDone:
			done++
		case StatusCanceled:
			canceled++
		default:
			t.Errorf("job %s ended %s: %s", id, v.Status, v.Error)
		}
	}
	if done == 0 {
		t.Fatal("no job completed")
	}
	m := s.Metrics()
	if got := m.JobsDoneTotal.Load(); got != int64(done) {
		t.Errorf("jobs_done_total = %d, want %d", got, done)
	}
	hits := m.CacheHitsTotal.Load()
	misses := m.CacheMissesTotal.Load()
	if hits+misses != m.JobsSubmittedTotal.Load() {
		t.Errorf("hits %d + misses %d != submitted %d", hits, misses, m.JobsSubmittedTotal.Load())
	}
	// Whether the burst itself hit depends on timing (every submission
	// can land before the first job finishes), but once drained each
	// key's result is cached: a repeat of any completed spec must hit.
	repeat, err := s.Submit(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !repeat.Cached {
		t.Error("post-burst repeat submission must be served from cache")
	}
}

// TestShutdownDrains pins graceful shutdown: submissions are refused,
// queued and running work completes, workers exit.
func TestShutdownDrains(t *testing.T) {
	s := mustNew(t, Config{Workers: 2})
	view, err := s.Submit(api.JobSpec{Kind: api.KindCheck, Algorithm: "treiber", Threads: 2, Ops: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone {
		t.Fatalf("job submitted before shutdown must drain to done, got %s", v.Status)
	}
	if _, err := s.Submit(api.JobSpec{Kind: api.KindCheck, Algorithm: "treiber", Threads: 2, Ops: 1}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("submit after shutdown = %v, want ErrShutdown", err)
	}
}

// TestShutdownDeadlineCancels pins the impatient path: when the drain
// context expires, in-flight jobs are canceled rather than awaited.
func TestShutdownDeadlineCancels(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	view, err := s.Submit(api.JobSpec{Kind: api.KindCheck, Algorithm: "ms-queue", Threads: 3, Ops: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, view.ID, StatusRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline shutdown = %v, want DeadlineExceeded", err)
	}
	v, err := s.Get(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusCanceled {
		t.Fatalf("in-flight job after forced shutdown = %s, want canceled", v.Status)
	}
}

// TestMaxStatesClamp pins the server-wide state budget: a spec asking
// for more than the cap is clamped before hashing, so the clamped and
// explicit spellings share a cache entry.
func TestMaxStatesClamp(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, MaxStates: 50_000})
	unlimited, err := s.Submit(api.JobSpec{Kind: api.KindCheck, Algorithm: "treiber", Threads: 2, Ops: 1})
	if err != nil {
		t.Fatal(err)
	}
	if unlimited.Spec.MaxStates != 50_000 {
		t.Fatalf("unbounded spec not clamped: MaxStates = %d", unlimited.Spec.MaxStates)
	}
	explicit, err := s.Submit(api.JobSpec{Kind: api.KindCheck, Algorithm: "treiber", Threads: 2, Ops: 1, MaxStates: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if explicit.CacheKey != unlimited.CacheKey {
		t.Fatal("clamped and explicit MaxStates must share a cache key")
	}
}
