package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/artifact"
)

// fastSpec is a spec that verifies in milliseconds, for persistence
// round-trips.
func fastSpec() api.JobSpec {
	return api.JobSpec{Kind: api.KindCheck, Algorithm: "treiber", Threads: 2, Ops: 1}
}

// waitPersisted polls until the server's artifact store holds n entries
// and the persister has counted them: Server.persist makes an entry
// visible in the store before it increments artifact_persisted_total.
func waitPersisted(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if s.Store().Len() >= n && s.metrics.ArtifactPersistedTotal.Load() >= int64(n) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("store never reached %d entries (have %d)", n, s.Store().Len())
}

// TestPersistAcrossRestart pins the tentpole acceptance criterion: a
// daemon restarted onto the same -store directory serves previously
// verified jobs as cache hits with byte-identical result JSON, without
// re-running them.
func TestPersistAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	s1, hs1 := newTestServer(t, Config{Workers: 2, StoreDir: dir})
	view := postJob(t, hs1.URL, fastSpec(), http.StatusAccepted)
	first := pollDone(t, hs1.URL, view.ID)
	if first.Status != StatusDone {
		t.Fatalf("job = %s, want done", first.Status)
	}
	waitPersisted(t, s1, 1)
	if got := metricValue(t, hs1.URL, "bbvd_artifact_persisted_total"); got < 1 {
		t.Fatalf("artifact_persisted_total = %v, want >= 1", got)
	}
	if got := metricValue(t, hs1.URL, "bbvd_artifact_store_bytes"); got <= 0 {
		t.Fatalf("artifact_store_bytes = %v, want > 0", got)
	}
	hs1.Close()
	s1.Close()

	// A fresh process on the same store: the submission must be answered
	// as a cache hit (status done immediately) from disk.
	_, hs2 := newTestServer(t, Config{Workers: 2, StoreDir: dir})
	second := postJob(t, hs2.URL, fastSpec(), http.StatusOK)
	if second.Status != StatusDone || !second.Cached {
		t.Fatalf("restarted daemon: status=%s cached=%v, want immediate cached done", second.Status, second.Cached)
	}
	if got := metricValue(t, hs2.URL, "bbvd_artifact_hits_total"); got != 1 {
		t.Fatalf("artifact_hits_total = %v, want 1", got)
	}
	if got := metricValue(t, hs2.URL, "bbvd_cache_hits_total"); got != 1 {
		t.Fatalf("cache_hits_total = %v, want 1 (store hits are cache hits)", got)
	}

	a, err := json.Marshal(first.Result)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(second.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("restored result JSON differs:\nbefore: %s\nafter:  %s", a, b)
	}
}

// TestShutdownFlushesArtifacts pins the graceful-shutdown satellite:
// work that completes during the drain is still written to the store,
// and the flush is counted.
func TestShutdownFlushesArtifacts(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, Config{Workers: 1, StoreDir: dir})
	// The job drains during Shutdown, so its artifact write happens
	// under the draining flag and must be flushed, not lost.
	if _, err := s.Submit(api.JobSpec{Kind: api.KindCheck, Algorithm: "ms-queue", Threads: 2, Ops: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.Store().Len() != 1 {
		t.Fatalf("store has %d entries after shutdown, want 1", s.Store().Len())
	}
	if got := s.FlushedAtShutdown(); got < 1 {
		t.Fatalf("FlushedAtShutdown = %d, want >= 1", got)
	}
}

// TestStoreEvictionUnderBudget pins disk-side LRU eviction: distinct
// jobs against a store budget smaller than their combined artifacts
// must evict, never exceed the budget by more than one live entry, and
// surface the eviction count on /metrics.
func TestStoreEvictionUnderBudget(t *testing.T) {
	dir := t.TempDir()
	s, hs := newTestServer(t, Config{Workers: 2, StoreDir: dir, StoreBudget: 2048})

	specs := []api.JobSpec{
		{Kind: api.KindExplore, Algorithm: "treiber", Threads: 2, Ops: 1},
		{Kind: api.KindExplore, Algorithm: "treiber", Threads: 2, Ops: 2},
		{Kind: api.KindExplore, Algorithm: "ms-queue", Threads: 2, Ops: 1},
		{Kind: api.KindExplore, Algorithm: "ms-queue", Threads: 2, Ops: 2},
	}
	for _, spec := range specs {
		view := postJob(t, hs.URL, spec, http.StatusAccepted)
		if got := pollDone(t, hs.URL, view.ID); got.Status != StatusDone {
			t.Fatalf("job = %s (%s), want done", got.Status, got.Error)
		}
	}
	// All four results persist (possibly evicting each other); wait for
	// the async writes to land.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && s.metrics.ArtifactPersistedTotal.Load() < int64(len(specs)) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.metrics.ArtifactPersistedTotal.Load(); got < int64(len(specs)) {
		t.Fatalf("persisted %d artifacts, want %d", got, len(specs))
	}
	if got := s.Store().Evictions(); got == 0 {
		t.Fatal("store under a 2KiB budget must have evicted")
	}
	if bytes, n := s.Store().Bytes(), s.Store().Len(); bytes > 2048 && n > 1 {
		t.Fatalf("store holds %d bytes in %d entries, want <= budget or a single oversized entry", bytes, n)
	}
	if got := metricValue(t, hs.URL, "bbvd_artifact_evictions_total"); got == 0 {
		t.Fatal("artifact_evictions_total must be > 0")
	}
	// The remaining store/stream metrics are exposed even when zero.
	if got := metricValue(t, hs.URL, "bbvd_artifact_quarantined_total"); got != 0 {
		t.Fatalf("artifact_quarantined_total = %v on a healthy store, want 0", got)
	}
	if got := metricValue(t, hs.URL, "bbvd_sse_clients_active"); got != 0 {
		t.Fatalf("sse_clients_active = %v with no streams open, want 0", got)
	}
}

// TestCacheByteBound pins the in-memory satellite: the result cache is
// bounded by encoded bytes first, so a result bigger than the whole
// byte budget is not cached at all, while a negative budget falls back
// to the entry cap.
func TestCacheByteBound(t *testing.T) {
	// A 16-byte budget no real result fits: the completed job must not
	// be served from cache on resubmission.
	s, hs := newTestServer(t, Config{Workers: 1, CacheBytes: 16})
	view := postJob(t, hs.URL, fastSpec(), http.StatusAccepted)
	if got := pollDone(t, hs.URL, view.ID); got.Status != StatusDone {
		t.Fatalf("job = %s, want done", got.Status)
	}
	again := postJob(t, hs.URL, fastSpec(), http.StatusAccepted)
	if again.Cached {
		t.Fatal("result larger than the cache byte budget must not be cached")
	}
	s.mu.Lock()
	n, bytes := s.cache.len(), s.cache.sizeBytes()
	s.mu.Unlock()
	if n != 0 || bytes != 0 {
		t.Fatalf("cache holds %d entries / %d bytes, want empty", n, bytes)
	}

	// Negative budget: entries-only bounding, cap 1 → the second
	// distinct job evicts the first.
	s2, hs2 := newTestServer(t, Config{Workers: 1, CacheSize: 1, CacheBytes: -1})
	specA := fastSpec()
	specB := api.JobSpec{Kind: api.KindExplore, Algorithm: "treiber", Threads: 2, Ops: 1}
	va := postJob(t, hs2.URL, specA, http.StatusAccepted)
	pollDone(t, hs2.URL, va.ID)
	vb := postJob(t, hs2.URL, specB, http.StatusAccepted)
	pollDone(t, hs2.URL, vb.ID)
	if hit := postJob(t, hs2.URL, specB, http.StatusOK); !hit.Cached {
		t.Fatal("most recent result must be cached under the entry cap")
	}
	if miss := postJob(t, hs2.URL, specA, http.StatusAccepted); miss.Cached {
		t.Fatal("entry cap 1 must have evicted the older result")
	}
	pollDone(t, hs2.URL, va.ID)
	s2.mu.Lock()
	n2 := s2.cache.len()
	s2.mu.Unlock()
	if n2 != 1 {
		t.Fatalf("cache len = %d, want 1 under entry cap 1", n2)
	}
}

// TestConcurrentSubmitGetDeleteWithStore races submissions (distinct
// and duplicate), status polls, cancels, and store-backed cache hits
// against each other; run under -race this pins the locking across the
// serve layer and the artifact store.
func TestConcurrentSubmitGetDeleteWithStore(t *testing.T) {
	dir := t.TempDir()
	s, _ := newTestServer(t, Config{Workers: 4, QueueDepth: 256, StoreDir: dir, StoreBudget: 4096})

	specs := []api.JobSpec{
		{Kind: api.KindExplore, Algorithm: "treiber", Threads: 2, Ops: 1},
		{Kind: api.KindExplore, Algorithm: "treiber", Threads: 2, Ops: 2},
		{Kind: api.KindCheck, Algorithm: "treiber", Threads: 2, Ops: 1},
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 12; i++ {
				view, err := s.Submit(specs[rng.Intn(len(specs))])
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				switch rng.Intn(3) {
				case 0:
					if _, err := s.Get(view.ID); err != nil {
						t.Errorf("get %s: %v", view.ID, err)
					}
				case 1:
					if _, err := s.Cancel(view.ID); err != nil {
						t.Errorf("cancel %s: %v", view.ID, err)
					}
				case 2:
					// Eviction racing a read: hammer the store while the
					// persister writes and evicts.
					s.Store().Keys()
					if ks := s.Store().Keys(); len(ks) > 0 {
						s.Store().Get(ks[rng.Intn(len(ks))])
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Every retained job reached a terminal state.
	for _, v := range s.List() {
		if !v.Status.Terminal() {
			t.Fatalf("job %s left in %s after drain", v.ID, v.Status)
		}
	}
}

// TestReplayCorpus pins -replay both ways: a clean corpus re-verifies,
// and an artifact whose stored verdict is tampered with — re-sealed, so
// checksum validation alone cannot catch it — is reported as drift.
func TestReplayCorpus(t *testing.T) {
	dir := t.TempDir()
	s, hs := newTestServer(t, Config{Workers: 2, StoreDir: dir})
	for _, spec := range []api.JobSpec{
		fastSpec(),
		{Kind: api.KindExplore, Algorithm: "treiber", Threads: 2, Ops: 1},
	} {
		view := postJob(t, hs.URL, spec, http.StatusAccepted)
		if got := pollDone(t, hs.URL, view.ID); got.Status != StatusDone {
			t.Fatalf("job = %s, want done", got.Status)
		}
	}
	waitPersisted(t, s, 2)
	hs.Close()
	s.Close()

	rep, err := Replay(context.Background(), dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Total != 2 || rep.Matched != 2 {
		t.Fatalf("clean corpus replay = %+v, want 2/2 matched", rep)
	}

	// Tamper: flip the explore artifact's state count and re-seal it.
	store, err := artifact.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var tampered string
	for _, key := range store.Keys() {
		payload, ok := store.Get(key)
		if !ok {
			t.Fatalf("stored artifact %s unreadable", key)
		}
		env, err := api.DecodeResultEnvelope(payload)
		if err != nil {
			t.Fatal(err)
		}
		if env.Result.Explore == nil {
			continue
		}
		env.Result.Explore.States++
		mutated, err := api.EncodeResultEnvelope(key, env.Result)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(key, mutated); err != nil {
			t.Fatal(err)
		}
		tampered = key
	}
	if tampered == "" {
		t.Fatal("no explore artifact found to tamper with")
	}

	rep, err = Replay(context.Background(), dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Drifted) != 1 || rep.Drifted[0].Key != tampered {
		t.Fatalf("tampered corpus replay = %+v, want exactly one drifted entry for %s", rep, tampered)
	}
	if !strings.Contains(rep.Drifted[0].Drift, "explore verdict changed") {
		t.Fatalf("drift message %q does not name the changed verdict", rep.Drifted[0].Drift)
	}
	if rep.Matched != 1 {
		t.Fatalf("untampered artifact must still match, report %+v", rep)
	}
}

// TestReplayQuarantinedCorpusFails pins that a corpus which lost an
// artifact to corruption does not replay as clean: the opening scan
// quarantines the bad entry and replay reports it as a failure.
func TestReplayQuarantinedCorpusFails(t *testing.T) {
	dir := t.TempDir()
	s, hs := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	view := postJob(t, hs.URL, fastSpec(), http.StatusAccepted)
	pollDone(t, hs.URL, view.ID)
	waitPersisted(t, s, 1)
	key := s.Store().Keys()[0]
	path := dir + "/" + key[:2] + "/" + key[2:] + "/result.json"
	hs.Close()
	s.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[40] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Replay(context.Background(), dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Failed) != 1 {
		t.Fatalf("replay over a corrupted corpus = %+v, want one failure", rep)
	}
}

// TestReplayEmptyCorpus pins that replaying a directory with no
// artifacts is a trivially clean report, not an error.
func TestReplayEmptyCorpus(t *testing.T) {
	rep, err := Replay(context.Background(), t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Total != 0 {
		t.Fatalf("empty corpus replay = %+v, want trivially clean", rep)
	}
}
