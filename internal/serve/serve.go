// Package serve is the verification serving layer: a bounded job queue
// feeding a worker pool sized off the machine's cores, a byte-bounded
// LRU result cache keyed by the canonical content hash of each job spec
// (api.JobSpec.CacheKey), an optional disk-backed content-addressed
// artifact store that persists completed results across restarts,
// per-job progress streaming over SSE, and stdlib-only metrics. It turns
// the one-shot bbverify workload — explore, quotient, decide — into a
// daemon-friendly one: identical requests from any client are answered
// from the cache (or the artifact store, surviving restarts) instead of
// re-exploring, abandoned or timed-out jobs cancel their in-flight
// exploration via context, and shutdown drains running work and flushes
// unpersisted artifacts.
//
// The cmd/bbvd daemon exposes this over HTTP; see Handler for the routes.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/artifact"
	"repro/internal/statestore"
)

// Config sizes the service.
type Config struct {
	// Workers is the verification worker-pool size; 0 defaults to
	// runtime.NumCPU(). Each worker runs one job at a time; the job's own
	// exploration parallelism is governed by its spec's Workers field.
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker; further
	// submissions are rejected with ErrQueueFull. 0 defaults to 64.
	QueueDepth int
	// CacheSize is the LRU result-cache capacity in entries; 0 defaults
	// to 256. Negative disables caching. The entry cap is the secondary
	// bound — CacheBytes is the primary one.
	CacheSize int
	// CacheBytes bounds the in-memory result cache by total encoded
	// result bytes, so one huge explain result cannot dominate the cache
	// (results bigger than the whole bound are not cached at all).
	// 0 defaults to 256 MiB; negative removes the byte bound, leaving
	// only the entry cap.
	CacheBytes int64
	// StoreDir, when non-empty, roots a persistent content-addressed
	// artifact store: every completed result is written under its cache
	// key and survives restarts (see internal/artifact). Empty disables
	// persistence.
	StoreDir string
	// StoreBudget bounds the artifact store's on-disk size in bytes with
	// LRU eviction; 0 = unlimited. Ignored without StoreDir.
	StoreBudget int64
	// DefaultTimeout bounds jobs that do not set their own timeout_ms;
	// 0 means no default bound.
	DefaultTimeout time.Duration
	// MaxStates caps every job's state budget: specs asking for more (or
	// for the unlimited default) are clamped before hashing and running.
	// 0 leaves specs untouched.
	MaxStates int
	// JobHistory bounds how many finished jobs are retained for status
	// queries; the oldest finished jobs are evicted first. 0 defaults to
	// 4096.
	JobHistory int
	// SSEHeartbeat is the keep-alive interval on /v1/jobs/{id}/events
	// streams; 0 defaults to 15s.
	SSEHeartbeat time.Duration
	// Logf, when set, receives operational log lines (artifact-store
	// write failures, shutdown flush counts). Nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 4096
	}
	if c.SSEHeartbeat <= 0 {
		c.SSEHeartbeat = 15 * time.Second
	}
	return c
}

// logf forwards to the configured logger, if any.
func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Status is a job's lifecycle state.
type Status string

// Job lifecycle: queued → running → done | failed | canceled. Cache hits
// are born done.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Sentinel errors surfaced by Submit and Cancel.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity; clients should retry later.
	ErrQueueFull = errors.New("serve: job queue is full")
	// ErrShutdown rejects submissions during graceful shutdown.
	ErrShutdown = errors.New("serve: server is shutting down")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("serve: no such job")
	// errClientCanceled is the cancel cause recorded when a client
	// cancels a running job via Cancel / DELETE.
	errClientCanceled = errors.New("job canceled by client")
)

// job is the server-side record of one submission. All fields after the
// immutable header are guarded by Server.mu.
type job struct {
	id   string
	spec api.JobSpec
	key  string

	status Status
	cached bool
	result *api.Result
	errMsg string
	// vetWarnings are the submit-time vet findings, attached to the
	// result when the job completes (so the cached result carries them).
	vetWarnings []api.VetFinding
	cancel      context.CancelCauseFunc // non-nil only while running
	submitted   time.Time
	finished    time.Time
}

// JobView is the wire representation of a job, returned by Submit/Get
// and serialized on every /v1/jobs response.
type JobView struct {
	ID     string      `json:"id"`
	Status Status      `json:"status"`
	Spec   api.JobSpec `json:"spec"`
	// CacheKey is the canonical content hash the result is cached under.
	CacheKey string `json:"cache_key"`
	// Cached marks a submission answered from the result cache (or the
	// persistent artifact store).
	Cached bool `json:"cached,omitempty"`
	// Result is set once Status is "done".
	Result *api.Result `json:"result,omitempty"`
	// Error is set when Status is "failed" or "canceled".
	Error string `json:"error,omitempty"`
}

func (j *job) view() *JobView {
	return &JobView{
		ID:       j.id,
		Status:   j.status,
		Spec:     j.spec,
		CacheKey: j.key,
		Cached:   j.cached,
		Result:   j.result,
		Error:    j.errMsg,
	}
}

// persistItem is one completed result awaiting its artifact-store write.
type persistItem struct {
	key     string
	payload []byte
}

// Server is the verification service. Create with New, serve its
// Handler, and stop it with Shutdown (graceful) or Close (immediate).
type Server struct {
	cfg     Config
	metrics Metrics
	store   *artifact.Store // nil when persistence is disabled
	events  *eventHub

	baseCtx   context.Context         // canceled to abort all running jobs
	cancelAll context.CancelCauseFunc // cancels baseCtx
	queue     chan *job
	wg        sync.WaitGroup
	// vetSlots bounds the submit-time vet passes in flight to
	// Config.Workers: each pass may run a pilot exploration, and a burst
	// of distinct submissions must not run one per request at once.
	vetSlots chan struct{}

	// Artifact persistence runs on its own goroutine so job completion
	// never waits on an fsync; Shutdown flushes whatever is still queued.
	persistCh    chan persistItem
	persistWG    sync.WaitGroup
	persistOnce  sync.Once
	draining     atomic.Bool
	flushedAtEnd atomic.Int64

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order, for history eviction
	cache  *resultCache
	nextID int64
	closed bool
}

// New starts a server with cfg's worker pool already running. It fails
// only when Config.StoreDir is set and the artifact store cannot be
// opened there.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:       cfg,
		baseCtx:   ctx,
		cancelAll: cancel,
		queue:     make(chan *job, cfg.QueueDepth),
		vetSlots:  make(chan struct{}, cfg.Workers),
		jobs:      make(map[string]*job),
		cache:     newResultCache(cfg.CacheSize, cfg.CacheBytes),
		events:    newEventHub(),
	}
	if cfg.StoreDir != "" {
		store, err := artifact.Open(cfg.StoreDir, cfg.StoreBudget)
		if err != nil {
			cancel(nil)
			return nil, err
		}
		s.store = store
		s.persistCh = make(chan persistItem, 256)
		s.persistWG.Add(1)
		go s.persister()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Metrics exposes the server counters.
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Config returns the effective configuration, defaults applied.
func (s *Server) Config() Config { return s.cfg }

// Store returns the persistent artifact store, or nil when persistence
// is disabled.
func (s *Server) Store() *artifact.Store { return s.store }

// FlushedAtShutdown reports how many completed-but-unpersisted artifacts
// the shutdown drain flushed to the store; meaningful after Shutdown
// returns.
func (s *Server) FlushedAtShutdown() int64 { return s.flushedAtEnd.Load() }

// Submit normalizes, validates, vets and enqueues spec, returning the
// job's initial view: status "done" (with the result) when the
// canonical cache key hits — in memory, or in the persistent artifact
// store after a restart — and "queued" otherwise. On a miss, at most
// Config.Workers submissions vet at once; the others wait for a slot.
// It fails with ErrQueueFull when the bounded queue is at capacity
// (checked before the vet pass, so a full queue costs no vetting),
// ErrShutdown during shutdown, a validation error for malformed specs, and an
// *api.VetError carrying structured findings when the pre-exploration
// static-analysis pass reports an error-severity finding (running such
// a job would be vacuous). Warning findings do not reject the job; they
// ride along on its result.
func (s *Server) Submit(spec api.JobSpec) (*JobView, error) {
	spec.Normalize()
	if s.cfg.MaxStates > 0 && (spec.MaxStates <= 0 || spec.MaxStates > s.cfg.MaxStates) {
		spec.MaxStates = s.cfg.MaxStates
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	key := spec.CacheKey()

	// The vet pass runs once per distinct job, on cache miss only, and
	// outside the server mutex (its τ-cycle probe executes a bounded
	// pilot exploration). A submission answered from the cache — or
	// promoted from the artifact store — skips it: the stored result
	// already carries the pass's warnings, so the cache-key semantics of
	// warning-free jobs are unchanged.
	var warnings []api.VetFinding
	if !s.lookup(key) {
		ws, err := s.vet(spec)
		if err != nil {
			return nil, err
		}
		warnings = ws
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrShutdown
	}
	s.nextID++
	j := &job{
		id:        fmt.Sprintf("j%06d", s.nextID),
		spec:      spec,
		key:       key,
		submitted: time.Now(),
	}
	if res, ok := s.cache.get(key); ok {
		s.metrics.CacheHitsTotal.Add(1)
		s.metrics.JobsSubmittedTotal.Add(1)
		s.metrics.JobsDoneTotal.Add(1)
		j.status = StatusDone
		j.cached = true
		j.result = res
		j.finished = j.submitted
		s.record(j)
		return j.view(), nil
	}
	j.status = StatusQueued
	j.vetWarnings = warnings
	select {
	case s.queue <- j:
	default:
		s.nextID-- // the job never existed
		return nil, ErrQueueFull
	}
	// The event stream must exist before any worker can touch the job;
	// workers take s.mu first, so creating it here is early enough.
	s.events.create(j.id)
	s.metrics.CacheMissesTotal.Add(1)
	s.metrics.JobsSubmittedTotal.Add(1)
	s.metrics.JobsQueuedNow.Add(1)
	s.record(j)
	return j.view(), nil
}

// vetSpec is the submit-time vet pass; tests replace it to observe how
// many passes run at once.
var vetSpec = api.VetSpec

// vet runs the vet pass for a job that missed the cache, in one of the
// Config.Workers vet slots. A full queue fails fast with ErrQueueFull,
// before waiting for a slot and again before vetting.
func (s *Server) vet(spec api.JobSpec) ([]api.VetFinding, error) {
	if len(s.queue) == cap(s.queue) {
		return nil, ErrQueueFull
	}
	s.vetSlots <- struct{}{}
	defer func() { <-s.vetSlots }()
	if len(s.queue) == cap(s.queue) {
		return nil, ErrQueueFull
	}
	ws, err := vetSpec(spec)
	s.metrics.RecordVet(ws)
	return ws, err
}

// lookup reports whether a result for key is servable, checking the
// in-memory cache first and then the artifact store. A store hit is
// decoded, verified against its address, and promoted into the memory
// cache, so the caller's subsequent locked cache.get hits.
func (s *Server) lookup(key string) bool {
	s.mu.Lock()
	_, ok := s.cache.get(key)
	s.mu.Unlock()
	if ok {
		return true
	}
	if s.store == nil {
		return false
	}
	payload, ok := s.store.Get(key)
	if !ok {
		return false
	}
	env, err := api.DecodeResultEnvelope(payload)
	if err != nil || env.Key != key {
		// Checksum-valid but semantically wrong (foreign schema, moved
		// file): never serve it, and remove it from the hot path.
		s.cfg.logf("serve: dropping undecodable artifact %s: %v", key, err)
		s.store.Delete(key)
		return false
	}
	s.metrics.ArtifactHitsTotal.Add(1)
	s.mu.Lock()
	s.cache.put(key, env.Result, int64(len(payload)))
	s.mu.Unlock()
	return true
}

// record indexes the job and evicts the oldest finished jobs beyond the
// history bound. Callers hold s.mu.
func (s *Server) record(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if len(s.jobs) <= s.cfg.JobHistory {
		return
	}
	kept := s.order[:0]
	excess := len(s.jobs) - s.cfg.JobHistory
	for _, id := range s.order {
		if excess > 0 {
			if old, ok := s.jobs[id]; ok && old.status.Terminal() {
				delete(s.jobs, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Get returns the job's current view.
func (s *Server) Get(id string) (*JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j.view(), nil
}

// List returns every retained job in submission order.
func (s *Server) List() []*JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*JobView, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j.view())
		}
	}
	return out
}

// Cancel aborts a job: a queued job is marked canceled before it starts;
// a running job has its context canceled and transitions once the
// exploration observes it. Canceling a finished job is a no-op.
func (s *Server) Cancel(id string) (*JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	switch j.status {
	case StatusQueued:
		j.status = StatusCanceled
		j.errMsg = errClientCanceled.Error()
		j.finished = time.Now()
		s.metrics.JobsQueuedNow.Add(-1)
		s.metrics.JobsCanceledTotal.Add(1)
		s.events.finish(j.id)
	case StatusRunning:
		j.cancel(errClientCanceled)
	}
	return j.view(), nil
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// persister drains the artifact write queue; one goroutine so writes
// are ordered and job completion never blocks on disk.
func (s *Server) persister() {
	defer s.persistWG.Done()
	for it := range s.persistCh {
		s.persist(it)
	}
}

// persist writes one completed result into the artifact store.
func (s *Server) persist(it persistItem) {
	if err := s.store.Put(it.key, it.payload); err != nil {
		s.cfg.logf("serve: artifact store write failed for %s: %v", it.key, err)
		return
	}
	s.metrics.ArtifactPersistedTotal.Add(1)
	if s.draining.Load() {
		s.flushedAtEnd.Add(1)
	}
}

// enqueuePersist hands a completed result to the persister; if its
// queue is full the write happens inline on the worker — an artifact is
// never dropped to keep latency.
func (s *Server) enqueuePersist(it persistItem) {
	select {
	case s.persistCh <- it:
	default:
		s.persist(it)
	}
}

// runJob executes one dequeued job under a per-job cancellable context,
// streams its stage events, updates its record, and feeds the caches
// and metrics.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.status != StatusQueued { // canceled while waiting
		s.mu.Unlock()
		return
	}
	j.status = StatusRunning
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	j.cancel = cancel
	timeout := time.Duration(j.spec.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	s.mu.Unlock()
	s.metrics.JobsQueuedNow.Add(-1)
	s.metrics.JobsRunning.Add(1)

	runCtx := ctx
	stopTimer := func() {}
	if timeout > 0 {
		runCtx, stopTimer = context.WithTimeout(ctx, timeout)
	}
	start := time.Now()
	res, err := api.RunBackend(runCtx, j.spec, statestore.Runtime(), func(st api.StageJSON) {
		s.events.publish(j.id, sseEvent{Type: EventStage, Data: st})
	})
	elapsed := time.Since(start)
	stopTimer()
	cancel(nil)

	s.metrics.JobsRunning.Add(-1)
	s.metrics.WallTimeMicrosTotal.Add(elapsed.Microseconds())

	// Encode the persisted envelope outside the server mutex; its length
	// is also the result's size for the byte-bounded memory cache.
	var payload []byte
	if err == nil {
		res.ElapsedMS = elapsed.Milliseconds()
		res.Warnings = j.vetWarnings
		var encErr error
		payload, encErr = api.EncodeResultEnvelope(j.key, res)
		if encErr != nil { // cannot happen for a marshalable Result; be loud, keep serving
			s.cfg.logf("serve: result envelope encoding failed for %s: %v", j.key, encErr)
		}
	}

	s.mu.Lock()
	j.cancel = nil
	j.finished = time.Now()
	switch {
	case err == nil:
		j.status = StatusDone
		j.result = res
		s.cache.put(j.key, res, int64(len(payload)))
		s.metrics.JobsDoneTotal.Add(1)
		s.metrics.StatesExploredTotal.Add(res.StatesExplored())
		s.metrics.RecordStages(res.Stages)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, errClientCanceled) || errors.Is(err, ErrShutdown):
		// The typed cancellation errors unwrap to the cancel *cause*,
		// which for client cancels and forced shutdown is our own
		// sentinel rather than context.Canceled.
		j.status = StatusCanceled
		j.errMsg = err.Error()
		s.metrics.JobsCanceledTotal.Add(1)
	default:
		j.status = StatusFailed
		j.errMsg = err.Error()
		s.metrics.JobsFailedTotal.Add(1)
	}
	// Close the event stream under s.mu: subscribers checking the job
	// status under the same lock either see it non-terminal and get a
	// channel this close will end, or see the final record.
	s.events.finish(j.id)
	s.mu.Unlock()

	if err == nil && s.store != nil && payload != nil {
		s.enqueuePersist(persistItem{key: j.key, payload: payload})
	}
}

// closePersist stops the persister after the workers have drained, once.
func (s *Server) closePersist() {
	if s.persistCh == nil {
		return
	}
	s.persistOnce.Do(func() { close(s.persistCh) })
	s.persistWG.Wait()
}

// Shutdown stops accepting submissions and waits for the workers to
// drain every queued and running job, then flushes any
// completed-but-unpersisted artifacts to the store so a restart never
// loses finished work (the flush count is logged and available via
// FlushedAtShutdown). If ctx expires first, all in-flight jobs are
// canceled (they record status "canceled") and Shutdown still waits for
// the workers and the artifact flush before returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.closePersist()
		close(done)
	}()
	finish := func() {
		if s.store != nil {
			s.cfg.logf("serve: flushed %d artifact(s) to %s during shutdown", s.FlushedAtShutdown(), s.store.Root())
		}
	}
	select {
	case <-done:
		finish()
		return nil
	case <-ctx.Done():
		s.cancelAll(context.Cause(ctx))
		<-done
		finish()
		return ctx.Err()
	}
}

// Close cancels every in-flight job and waits for the workers to exit.
func (s *Server) Close() {
	s.cancelAll(ErrShutdown)
	_ = s.Shutdown(context.Background())
}
