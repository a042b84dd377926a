package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/bisim"
	"repro/internal/lts"
	"repro/internal/machine"
	"repro/internal/refine"
)

// Session is a per-(program set, Config) artifact store for the
// verification pipeline. It memoizes every expensive intermediate —
// explored LTSs (with deadlock info), branching-bisimulation quotients,
// τ-cycle analyses, equivalence decisions and trace-inclusion results —
// so that any combination of checks run against the same program
// instances explores and quotients each artifact exactly once. All
// programs in a session share one action and one label alphabet, which
// is what refine.TraceInclusion and bisim.EquivalentContext require anyway.
//
// Artifacts are keyed by identity: the same *machine.Program (and the
// same *lts.LTS derived from it) must be passed for reuse to trigger.
// Only successfully computed artifacts are stored, so a session remains
// safe to use after a check was canceled mid-way: completed stages are
// reused, the interrupted stage is recomputed on the next call.
//
// Session methods serialize on an internal mutex (shared alphabets are
// not safe for concurrent interning); a session is nonetheless safe to
// share between goroutines.
type Session struct {
	cfg    Config
	acts   *lts.Alphabet
	labels *lts.Alphabet

	mu        sync.Mutex
	stats     []StageStat
	programs  map[*machine.Program]*exploredProgram
	quotients map[*lts.LTS]*quotientArtifact
	tauCycles map[*lts.LTS]*tauCycleArtifact
	eqs       map[eqKey]*eqArtifact
	incls     map[inclKey]*inclArtifact
	explains  map[eqKey]*explainArtifact
}

type exploredProgram struct {
	l    *lts.LTS
	info *machine.Info
	stat StageStat
}

type quotientArtifact struct {
	q    *lts.LTS
	p    *bisim.Partition
	stat StageStat
}

type tauCycleArtifact struct {
	cyclic bool
	stat   StageStat
}

type eqKey struct {
	a, b *lts.LTS
	kind bisim.Kind
}

type eqArtifact struct {
	eq   bool
	stat StageStat
}

type inclKey struct{ impl, spec *lts.LTS }

type inclArtifact struct {
	res  *refine.Result
	stat StageStat
}

type explainArtifact struct {
	exp  *bisim.Explanation // nil when the pair is bisimilar
	bad  bool
	stat StageStat
}

// NewSession creates an empty session for the given configuration.
func NewSession(cfg Config) *Session {
	return &Session{
		cfg:       cfg,
		acts:      lts.NewAlphabet(),
		labels:    lts.NewAlphabet(),
		programs:  make(map[*machine.Program]*exploredProgram),
		quotients: make(map[*lts.LTS]*quotientArtifact),
		tauCycles: make(map[*lts.LTS]*tauCycleArtifact),
		eqs:       make(map[eqKey]*eqArtifact),
		incls:     make(map[inclKey]*inclArtifact),
		explains:  make(map[eqKey]*explainArtifact),
	}
}

// Config returns the configuration all artifacts of this session are
// built under.
func (s *Session) Config() Config { return s.cfg }

// Stats returns a copy of the session's full stage log, in execution
// order across all checks served so far.
func (s *Session) Stats() []StageStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]StageStat(nil), s.stats...)
}

// Record appends an externally measured stage to the session log, for
// pipeline steps that run outside the session (e.g. k-trace analysis).
func (s *Session) Record(st StageStat) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = append(s.stats, st)
	s.observe(st)
}

// observe forwards a just-recorded stage to the configured observer, if
// any. Callers hold s.mu.
func (s *Session) observe(st StageStat) {
	if s.cfg.StageObserver != nil {
		s.cfg.StageObserver(st)
	}
}

// recorder collects the stages of one check while mirroring them into
// the session log. All its methods require s.mu to be held.
type recorder struct {
	s      *Session
	stages []StageStat
}

func (r *recorder) add(st StageStat) {
	r.stages = append(r.stages, st)
	r.s.stats = append(r.s.stats, st)
	r.s.observe(st)
}

// hit re-records a memoized stage as served from cache.
func (r *recorder) hit(st StageStat) {
	st.Cached = true
	st.Elapsed = 0
	r.add(st)
}

// targetOf names an LTS for stage stats: the owning program's name when
// the LTS was explored by this session, the owning program's name with a
// "/≈" suffix when it is a quotient built by this session, else "lts".
func (s *Session) targetOf(l *lts.LTS) string {
	for p, a := range s.programs {
		if a.l == l {
			return p.Name
		}
	}
	for base, a := range s.quotients {
		if a.q == l {
			return s.targetOf(base) + "/≈"
		}
	}
	return "lts"
}

// explore returns the memoized exploration of p, generating it on first
// use. s.mu must be held.
func (s *Session) explore(ctx context.Context, r *recorder, p *machine.Program) (*exploredProgram, error) {
	if a, ok := s.programs[p]; ok {
		r.hit(a.stat)
		return a, nil
	}
	opt := s.cfg.options(p, s.acts, s.labels)
	if s.cfg.Reduction {
		rstart := time.Now()
		opt.Reduction = s.cfg.reduction(p)
		rstat := StageStat{
			Stage:   StageReduction,
			Target:  p.Name,
			Elapsed: time.Since(rstart),
		}
		if opt.Reduction != nil {
			rstat.StatesOut = opt.Reduction.NumConfluent()
		}
		r.add(rstat)
	}
	start := time.Now()
	l, info, err := machine.ExploreWithInfoContext(ctx, p, opt)
	if err != nil {
		return nil, fmt.Errorf("explore %s: %w", p.Name, err)
	}
	a := &exploredProgram{l: l, info: info, stat: StageStat{
		Stage:          StageExplore,
		Target:         p.Name,
		Elapsed:        time.Since(start),
		StatesOut:      l.NumStates(),
		TransitionsOut: l.NumTransitions(),
		BytesPerState:  info.Stats.BytesPerState(),
		PeakRSSBytes:   info.Stats.PeakRSSBytes,
		SpillFiles:     info.Stats.SpillFiles,
		StatesPerSec:   info.Stats.StatesPerSec(),
		PrunedStates:   info.Stats.PrunedStates,
	}}
	s.programs[p] = a
	r.add(a.stat)
	return a, nil
}

// quotient returns the memoized branching-bisimulation quotient of l.
// s.mu must be held.
func (s *Session) quotient(ctx context.Context, r *recorder, l *lts.LTS) (*quotientArtifact, error) {
	if a, ok := s.quotients[l]; ok {
		r.hit(a.stat)
		return a, nil
	}
	start := time.Now()
	q, p, err := bisim.ReduceBranchingContext(ctx, l)
	if err != nil {
		return nil, err
	}
	a := &quotientArtifact{q: q, p: p, stat: StageStat{
		Stage:          StageQuotient,
		Target:         s.targetOf(l),
		Elapsed:        time.Since(start),
		StatesIn:       l.NumStates(),
		TransitionsIn:  l.NumTransitions(),
		StatesOut:      q.NumStates(),
		TransitionsOut: q.NumTransitions(),
		Rounds:         p.Rounds,
	}}
	s.quotients[l] = a
	r.add(a.stat)
	return a, nil
}

// tauCyclic returns the memoized τ-cycle verdict for l. s.mu must be
// held.
func (s *Session) tauCyclic(r *recorder, l *lts.LTS) bool {
	if a, ok := s.tauCycles[l]; ok {
		r.hit(a.stat)
		return a.cyclic
	}
	start := time.Now()
	_, cyc := lts.HasTauCycle(l)
	a := &tauCycleArtifact{cyclic: cyc, stat: StageStat{
		Stage:         StageTauSCC,
		Target:        s.targetOf(l),
		Elapsed:       time.Since(start),
		StatesIn:      l.NumStates(),
		TransitionsIn: l.NumTransitions(),
	}}
	s.tauCycles[l] = a
	r.add(a.stat)
	return cyc
}

// kindTag is the compact notation for a bisimulation kind, used in
// stage-stat targets.
func kindTag(kind bisim.Kind) string {
	switch kind {
	case bisim.KindStrong:
		return "~"
	case bisim.KindBranching:
		return "≈"
	case bisim.KindDivBranching:
		return "≈div"
	case bisim.KindWeak:
		return "~w"
	case bisim.KindDivWeak:
		return "~w-div"
	default:
		return kind.String()
	}
}

// equivalent returns the memoized equivalence verdict for a and b under
// kind (a symmetric relation, so both orientations hit the same entry).
// s.mu must be held.
func (s *Session) equivalent(ctx context.Context, r *recorder, a, b *lts.LTS, kind bisim.Kind) (bool, error) {
	for _, key := range []eqKey{{a, b, kind}, {b, a, kind}} {
		if art, ok := s.eqs[key]; ok {
			r.hit(art.stat)
			return art.eq, nil
		}
	}
	start := time.Now()
	u, initB, err := lts.DisjointUnion(a, b)
	if err != nil {
		return false, err
	}
	p, err := bisim.PartitionContext(ctx, u, kind)
	if err != nil {
		return false, err
	}
	eq := p.BlockOf[u.Init] == p.BlockOf[initB]
	art := &eqArtifact{eq: eq, stat: StageStat{
		Stage:         StageEquivalence,
		Target:        fmt.Sprintf("%s %s %s", s.targetOf(a), kindTag(kind), s.targetOf(b)),
		Elapsed:       time.Since(start),
		StatesIn:      u.NumStates(),
		TransitionsIn: u.NumTransitions(),
		StatesOut:     p.Num,
		Rounds:        p.Rounds,
	}}
	s.eqs[eqKey{a, b, kind}] = art
	r.add(art.stat)
	return eq, nil
}

// explain returns the memoized distinguishing experiment between a and b
// under kind (nil experiment when they are bisimilar). Unlike equivalent,
// the key is ordered: the experiment's sides name a and b. s.mu must be
// held.
func (s *Session) explain(ctx context.Context, r *recorder, a, b *lts.LTS, kind bisim.Kind) (*bisim.Explanation, bool, error) {
	key := eqKey{a, b, kind}
	if art, ok := s.explains[key]; ok {
		r.hit(art.stat)
		return art.exp, art.bad, nil
	}
	start := time.Now()
	exp, bad, err := bisim.ExplainContext(ctx, a, b, kind)
	if err != nil {
		return nil, false, err
	}
	steps := 0
	if exp != nil {
		steps = len(exp.Experiment)
	}
	art := &explainArtifact{exp: exp, bad: bad, stat: StageStat{
		Stage:         StageExplain,
		Target:        fmt.Sprintf("%s %s %s", s.targetOf(a), kindTag(kind), s.targetOf(b)),
		Elapsed:       time.Since(start),
		StatesIn:      a.NumStates() + b.NumStates(),
		TransitionsIn: a.NumTransitions() + b.NumTransitions(),
		StatesOut:     steps,
	}}
	s.explains[key] = art
	r.add(art.stat)
	return exp, bad, nil
}

// traceInclusion returns the memoized trace-refinement result between
// two quotients. s.mu must be held.
func (s *Session) traceInclusion(r *recorder, implQ, specQ *lts.LTS) (*refine.Result, error) {
	key := inclKey{implQ, specQ}
	if art, ok := s.incls[key]; ok {
		r.hit(art.stat)
		return art.res, nil
	}
	start := time.Now()
	res, err := refine.TraceInclusion(implQ, specQ)
	if err != nil {
		return nil, err
	}
	art := &inclArtifact{res: res, stat: StageStat{
		Stage:         StageTraceInclusion,
		Target:        fmt.Sprintf("%s ⊑tr %s", s.targetOf(implQ), s.targetOf(specQ)),
		Elapsed:       time.Since(start),
		StatesIn:      implQ.NumStates() + specQ.NumStates(),
		TransitionsIn: implQ.NumTransitions() + specQ.NumTransitions(),
		StatesOut:     res.PairsExplored,
	}}
	s.incls[key] = art
	r.add(art.stat)
	return res, nil
}

// ExploreWithInfoContext returns the session's LTS of p and its deadlock
// information, generating and memoizing them on first use. All programs
// of a session share its alphabets.
func (s *Session) ExploreWithInfoContext(ctx context.Context, p *machine.Program) (*lts.LTS, *machine.Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, err := s.explore(ctx, &recorder{s: s}, p)
	if err != nil {
		return nil, nil, err
	}
	return a.l, a.info, nil
}

// QuotientContext returns the memoized branching-bisimulation quotient
// of l (typically an LTS previously returned by ExploreWithInfoContext).
func (s *Session) QuotientContext(ctx context.Context, l *lts.LTS) (*lts.LTS, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, err := s.quotient(ctx, &recorder{s: s}, l)
	if err != nil {
		return nil, err
	}
	return a.q, nil
}

// EquivalentContext reports whether a and b are bisimilar under kind,
// serving repeated queries from the session's memo.
func (s *Session) EquivalentContext(ctx context.Context, a, b *lts.LTS, kind bisim.Kind) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.equivalent(ctx, &recorder{s: s}, a, b, kind)
}

// ExplainContext returns a shortest distinguishing experiment for a and
// b under kind (branching kinds only), or ok=false when they are
// bisimilar, serving repeated queries from the session's memo.
func (s *Session) ExplainContext(ctx context.Context, a, b *lts.LTS, kind bisim.Kind) (*bisim.Explanation, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.explain(ctx, &recorder{s: s}, a, b, kind)
}

// TraceInclusion decides quotient trace refinement implQ ⊑tr specQ,
// serving repeated queries from the session's memo.
func (s *Session) TraceInclusion(implQ, specQ *lts.LTS) (*refine.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.traceInclusion(&recorder{s: s}, implQ, specQ)
}

// TauCyclic reports whether l has a reachable τ-cycle (can diverge),
// serving repeated queries from the session's memo.
func (s *Session) TauCyclic(l *lts.LTS) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tauCyclic(&recorder{s: s}, l)
}

// CheckLinearizabilityContext verifies impl against spec by Theorem 5.3:
// compute both branching-bisimulation quotients, then decide trace
// refinement between the quotients. Exploration and partition refinement
// poll ctx, so an abandoned or timed-out check stops promptly with a
// typed cancellation error.
func (s *Session) CheckLinearizabilityContext(ctx context.Context, impl, spec *machine.Program) (*LinearizabilityResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	r := &recorder{s: s}
	ia, err := s.explore(ctx, r, impl)
	if err != nil {
		return nil, err
	}
	sa, err := s.explore(ctx, r, spec)
	if err != nil {
		return nil, err
	}
	iq, err := s.quotient(ctx, r, ia.l)
	if err != nil {
		return nil, err
	}
	sq, err := s.quotient(ctx, r, sa.l)
	if err != nil {
		return nil, err
	}
	res, err := s.traceInclusion(r, iq.q, sq.q)
	if err != nil {
		return nil, err
	}
	// On a negative verdict, also extract a distinguishing experiment
	// between the quotients: branching bisimilarity implies quotient trace
	// equivalence, so failed inclusion means the quotients are not
	// bisimilar and the experiment pinpoints where they part ways.
	var distinguishing *bisim.Explanation
	if !res.Included {
		exp, bad, err := s.explain(ctx, r, iq.q, sq.q, bisim.KindBranching)
		if err != nil {
			return nil, err
		}
		if bad {
			distinguishing = exp
		}
	}
	return &LinearizabilityResult{
		Linearizable:       res.Included,
		Counterexample:     res.Counterexample,
		Distinguishing:     distinguishing,
		ImplStates:         ia.l.NumStates(),
		SpecStates:         sa.l.NumStates(),
		ImplQuotientStates: iq.q.NumStates(),
		SpecQuotient:       sq.q.NumStates(),
		Elapsed:            time.Since(start),
		Stages:             r.stages,
	}, nil
}

// CheckLockFreeAutoContext verifies lock-freedom fully automatically by
// Theorem 5.9: compute Δ/≈ and check Δ ≈div Δ/≈. The quotient never has
// an infinite τ-path (Lemma 5.7), so ≈div holds exactly when Δ is
// divergence-free; a failure yields a divergence diagnostic.
func (s *Session) CheckLockFreeAutoContext(ctx context.Context, impl *machine.Program) (*LockFreedomResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	r := &recorder{s: s}
	ia, err := s.explore(ctx, r, impl)
	if err != nil {
		return nil, err
	}
	qa, err := s.quotient(ctx, r, ia.l)
	if err != nil {
		return nil, err
	}
	if s.tauCyclic(r, qa.q) {
		// Lemma 5.7 guarantees this cannot happen; failing loudly here
		// protects against engine bugs.
		return nil, fmt.Errorf("core: quotient of %s has a τ-cycle, violating Lemma 5.7", impl.Name)
	}
	eq, err := s.equivalent(ctx, r, ia.l, qa.q, bisim.KindDivBranching)
	if err != nil {
		return nil, err
	}
	res := &LockFreedomResult{
		LockFree:       eq,
		Theorem:        "5.9 (quotient)",
		ImplStates:     ia.l.NumStates(),
		AbstractStates: qa.q.NumStates(),
		Bisimilar:      eq,
	}
	if !eq {
		path, ok := lts.DivergencePath(ia.l)
		if !ok {
			return nil, fmt.Errorf("core: %s is not ≈div its quotient but no τ-cycle was found", impl.Name)
		}
		res.Divergence = path
	}
	res.Elapsed = time.Since(start)
	res.Stages = r.stages
	return res, nil
}

// CheckLockFreeAbstractContext verifies lock-freedom by Theorem 5.8:
// establish impl ≈div abs and check lock-freedom of the (much simpler)
// abstract program. When the two systems are not ≈div-related the theorem
// does not apply; the result then reports Bisimilar=false and, if impl
// itself diverges, carries the divergence diagnostic.
func (s *Session) CheckLockFreeAbstractContext(ctx context.Context, impl, abs *machine.Program) (*LockFreedomResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	r := &recorder{s: s}
	ia, err := s.explore(ctx, r, impl)
	if err != nil {
		return nil, err
	}
	aa, err := s.explore(ctx, r, abs)
	if err != nil {
		return nil, err
	}
	eq, err := s.equivalent(ctx, r, ia.l, aa.l, bisim.KindDivBranching)
	if err != nil {
		return nil, err
	}
	res := &LockFreedomResult{
		Theorem:        "5.8 (abstract)",
		ImplStates:     ia.l.NumStates(),
		AbstractStates: aa.l.NumStates(),
		Bisimilar:      eq,
	}
	if !eq {
		res.LockFree = false
		if path, ok := lts.DivergencePath(ia.l); ok {
			res.Divergence = path
		}
		res.Elapsed = time.Since(start)
		res.Stages = r.stages
		return res, nil
	}
	// Theorem 5.8: impl is lock-free iff abs is. The abstract program is
	// finite-state, so its lock-freedom is a τ-cycle check.
	if s.tauCyclic(r, aa.l) {
		res.LockFree = false
		if path, ok := lts.DivergencePath(aa.l); ok {
			res.Divergence = path
		}
	} else {
		res.LockFree = true
	}
	res.Elapsed = time.Since(start)
	res.Stages = r.stages
	return res, nil
}

// CompareWithSpecContext reproduces one row of Table VII: sizes of Δ,
// Δ/≈, Θsp, Θsp/≈, plus whether Δ ~w Θsp and Δ ≈ Θsp.
func (s *Session) CompareWithSpecContext(ctx context.Context, impl, spec *machine.Program) (*EquivalenceReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	r := &recorder{s: s}
	ia, err := s.explore(ctx, r, impl)
	if err != nil {
		return nil, err
	}
	sa, err := s.explore(ctx, r, spec)
	if err != nil {
		return nil, err
	}
	iq, err := s.quotient(ctx, r, ia.l)
	if err != nil {
		return nil, err
	}
	sq, err := s.quotient(ctx, r, sa.l)
	if err != nil {
		return nil, err
	}
	// Δ ≈ Δ/≈ and ≈ refines ~w, so both equivalences can be decided on
	// the far smaller quotients: Δ R Θsp iff Δ/≈ R Θsp/≈ for R ∈ {≈, ~w}.
	weak, err := s.equivalent(ctx, r, iq.q, sq.q, bisim.KindWeak)
	if err != nil {
		return nil, err
	}
	br, err := s.equivalent(ctx, r, iq.q, sq.q, bisim.KindBranching)
	if err != nil {
		return nil, err
	}
	return &EquivalenceReport{
		ImplStates:      ia.l.NumStates(),
		SpecStates:      sa.l.NumStates(),
		ImplQuotient:    iq.q.NumStates(),
		SpecQuotient:    sq.q.NumStates(),
		WeakBisimilar:   weak,
		BranchBisimilar: br,
		Elapsed:         time.Since(start),
		Stages:          r.stages,
	}, nil
}

// CheckDeadlockFreeContext explores impl and searches it for reachable
// deadlocks.
func (s *Session) CheckDeadlockFreeContext(ctx context.Context, impl *machine.Program) (*DeadlockResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	r := &recorder{s: s}
	ia, err := s.explore(ctx, r, impl)
	if err != nil {
		return nil, err
	}
	res := &DeadlockResult{DeadlockFree: len(ia.info.Deadlocks) == 0, States: ia.l.NumStates()}
	if !res.DeadlockFree {
		dead := make(map[int32]bool, len(ia.info.Deadlocks))
		for _, d := range ia.info.Deadlocks {
			dead[d] = true
		}
		if path, ok := lts.ShortestPathTo(ia.l, func(st int32) bool { return dead[st] }); ok {
			res.Witness = path
		}
	}
	res.Elapsed = time.Since(start)
	res.Stages = r.stages
	return res, nil
}
