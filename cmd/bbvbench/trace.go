package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/algorithms"
	"repro/internal/api"
	"repro/internal/bbvl"
	"repro/internal/bisim"
	"repro/internal/ktrace"
	"repro/internal/lts"
	"repro/internal/machine"
	"repro/internal/refine"
	"repro/internal/statecodec"
)

// span is one timed layer call of a traced pass. Spans of one job share
// Job; Parent is the index of the enclosing span, -1 for a root.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Job    string             `json:"job"`
	Start  float64            `json:"start_us"`
	End    float64            `json:"end_us"`
	Args   map[string]float64 `json:"args,omitempty"`
}

// tracer keeps a traced pass's spans in memory; the harness writes them
// out when the benchmark ends. A pass is one goroutine, so spans nest as
// a stack.
type tracer struct {
	t0    time.Time
	job   string
	open  []int
	spans []span
}

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span under the innermost open one and returns the call
// that closes it, attaching the counts measured inside.
func (t *tracer) begin(name string) func(args map[string]float64) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: t.job, Start: t.now()})
	t.open = append(t.open, id)
	return func(args map[string]float64) {
		t.spans[id].End = t.now()
		t.spans[id].Args = args
		t.open = t.open[:len(t.open)-1]
	}
}

// ktraceMaxK bounds the k-trace hierarchy, as api's ktrace jobs do.
const ktraceMaxK = 5

// runTracedPass runs the jobs in order like runPass, but re-composes each
// one from the layers' public functions and records a span around every
// layer call. After each job, a probe outside the composed pass times the
// τ-SCC decomposition and collapse of every LTS the job explored: the
// refiner repeats that work internally, where no span can reach it.
func runTracedPass(jobs []job, order []int, backend statecodec.Backend) *passResult {
	tr := &tracer{t0: time.Now()}
	res := &passResult{}
	for _, i := range order {
		j := jobs[i]
		tr.job = j.id
		c := &composer{spec: j.spec, backend: backend, tr: tr}
		start := time.Now()
		end := tr.begin("job")
		v, err := c.run()
		end(nil)
		res.PassS += time.Since(start).Seconds()
		jr := jobResult{ID: j.id, Verdict: v}
		if err != nil {
			jr.Error = err.Error()
		}
		res.Jobs = append(res.Jobs, jr)
		for _, l := range c.order {
			probeTauSCCs(tr, c.explored[l].l)
		}
	}
	res.Spans = tr.spans
	return res
}

func probeTauSCCs(tr *tracer, l *lts.LTS) {
	endProbe := tr.begin("probe")
	end := tr.begin("lts.tau_scc")
	scc := lts.TauSCCs(l)
	end(nil)
	end = tr.begin("lts.tau_collapse")
	collapsed, _ := lts.CollapseTauSCCs(l, scc)
	end(map[string]float64{"lts.probed_states": float64(l.NumStates()), "lts.collapsed_states": float64(collapsed.NumStates())})
	endProbe(nil)
}

// composer runs one job the way api.RunBackend and core.Session do:
// explorations and quotients are memoized per program and per LTS, and
// the checks run in the same order on one shared alphabet.
type composer struct {
	spec    api.JobSpec
	backend statecodec.Backend
	tr      *tracer
	ctx     context.Context

	acts, labels *lts.Alphabet
	refiner      bisim.Refiner
	order        []*machine.Program
	explored     map[*machine.Program]*exploration
	quotients    map[*lts.LTS]*lts.LTS
}

type exploration struct {
	l    *lts.LTS
	info *machine.Info
}

func (c *composer) run() (verdict, error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobDeadline)
	defer cancel()
	c.ctx = ctx
	c.spec.Normalize()
	ref, err := bisim.ParseRefiner(c.spec.Refiner)
	if err != nil {
		return verdict{}, err
	}
	c.refiner = ref
	c.acts, c.labels = lts.NewAlphabet(), lts.NewAlphabet()
	c.explored = make(map[*machine.Program]*exploration)
	c.quotients = make(map[*lts.LTS]*lts.LTS)
	alg, err := c.resolve()
	if err != nil {
		return verdict{}, err
	}
	acfg := algorithms.Config{Threads: c.spec.Threads, Ops: c.spec.Ops, Vals: c.spec.Vals}
	impl := alg.Build(acfg)
	switch c.spec.Kind {
	case api.KindCheck:
		return c.check(alg, acfg, impl)
	case api.KindKTrace:
		return c.ktrace(impl)
	}
	return verdict{}, fmt.Errorf("traced pass: unsupported job kind %q", c.spec.Kind)
}

func (c *composer) resolve() (*algorithms.Algorithm, error) {
	if c.spec.ModelSource == "" {
		return algorithms.ByID(c.spec.Algorithm)
	}
	end := c.tr.begin("bbvl.load")
	m, err := bbvl.Load(c.spec.ModelName, []byte(c.spec.ModelSource))
	end(nil)
	if err != nil {
		return nil, err
	}
	return m.Algorithm(), nil
}

func (c *composer) check(alg *algorithms.Algorithm, acfg algorithms.Config, impl *machine.Program) (verdict, error) {
	checks := c.spec.Checks
	if len(checks) == 0 {
		checks = []string{api.CheckLinearizability, api.CheckLockFree}
		if alg.LockBased {
			checks[1] = api.CheckDeadlock
		}
	}
	var v verdict
	for _, check := range checks {
		ia, err := c.explore(impl)
		if err != nil {
			return v, err
		}
		v.ImplStates = ia.l.NumStates()
		switch check {
		case api.CheckLinearizability:
			sa, err := c.explore(alg.Spec(acfg))
			if err != nil {
				return v, err
			}
			iq, err := c.quotient(ia.l)
			if err != nil {
				return v, err
			}
			sq, err := c.quotient(sa.l)
			if err != nil {
				return v, err
			}
			included, err := c.traceInclusion(iq, sq)
			if err != nil {
				return v, err
			}
			if !included {
				if err := c.explain(iq, sq); err != nil {
					return v, err
				}
			}
			v.Linearizable = &included
			v.SpecStates = sa.l.NumStates()
			v.ImplQuotient, v.SpecQuotient = iq.NumStates(), sq.NumStates()
		case api.CheckLockFree:
			q, err := c.quotient(ia.l)
			if err != nil {
				return v, err
			}
			if c.tauCyclic(q) {
				return v, fmt.Errorf("quotient of %s has a τ-cycle, violating Lemma 5.7", impl.Name)
			}
			eq, err := c.divEquivalent(ia.l, q)
			if err != nil {
				return v, err
			}
			if !eq {
				if _, ok := lts.DivergencePath(ia.l); !ok {
					return v, fmt.Errorf("%s is not ≈div its quotient but no τ-cycle was found", impl.Name)
				}
			}
			v.LockFree = &eq
		case api.CheckDeadlock:
			free := len(ia.info.Deadlocks) == 0
			if !free {
				dead := make(map[int32]bool, len(ia.info.Deadlocks))
				for _, d := range ia.info.Deadlocks {
					dead[d] = true
				}
				lts.ShortestPathTo(ia.l, func(s int32) bool { return dead[s] })
			}
			v.DeadlockFree = &free
		}
	}
	return v, nil
}

func (c *composer) ktrace(impl *machine.Program) (verdict, error) {
	a, err := c.explore(impl)
	if err != nil {
		return verdict{}, err
	}
	q, err := c.quotient(a.l)
	if err != nil {
		return verdict{}, err
	}
	end := c.tr.begin("ktrace.analyze")
	cls := ktrace.Classify(q, ktrace.Analyze(q, ktraceMaxK))
	end(nil)
	v := verdict{ImplQuotient: q.NumStates(), ImplStates: a.l.NumStates()}
	if cls.Eq1Neq2 != nil {
		v.Eq1Neq2 = q.LabelName(cls.Eq1Neq2.Label)
	}
	return v, nil
}

// explore mirrors core.Session's exploration: the vet layout first, then
// the reduction analysis when the job asks for it, then the explorer.
func (c *composer) explore(p *machine.Program) (*exploration, error) {
	if a, ok := c.explored[p]; ok {
		return a, nil
	}
	s := c.spec
	opt := machine.Options{
		Threads:   s.Threads,
		Ops:       s.Ops,
		MaxStates: s.MaxStates,
		Workers:   s.Workers,
		Acts:      c.acts,
		Labels:    c.labels,
		MemBudget: int64(s.MemBudgetMB) << 20,
		Backend:   c.backend,
	}
	end := c.tr.begin("vet.layout")
	opt.Layout = api.LayoutProvider(s.Threads, s.Ops)(p)
	end(nil)
	if s.Reduction {
		end := c.tr.begin("vet.reduce")
		red := api.ReductionProvider(s.Threads, s.Ops)(p)
		confluent := 0
		if red != nil && !red.Empty() {
			opt.Reduction = red
			confluent = red.NumConfluent()
		}
		end(map[string]float64{"vet.confluent_stmts": float64(confluent)})
	}
	end = c.tr.begin("machine.explore")
	alloc := totalAlloc()
	l, info, err := machine.ExploreWithInfoContext(c.ctx, p, opt)
	if err != nil {
		end(nil)
		return nil, fmt.Errorf("explore %s: %w", p.Name, err)
	}
	st := info.Stats
	end(map[string]float64{
		"machine.states":               float64(l.NumStates()),
		"machine.transitions":          float64(l.NumTransitions()),
		"machine.alloc_mib":            mib(totalAlloc() - alloc),
		"machine.pruned_states":        float64(st.PrunedStates),
		"statestore.encoded_bytes":     float64(st.EncodedBytes),
		"statestore.peak_resident_mib": mib(uint64(st.PeakResidentBytes)),
		"statestore.spill_files":       float64(st.SpillFiles),
		"statestore.table_flushes":     float64(st.TableFlushes),
		"statestore.frontier_spills":   float64(st.FrontierSpills),
	})
	a := &exploration{l: l, info: info}
	c.explored[p] = a
	c.order = append(c.order, p)
	return a, nil
}

// quotient is bisim.ReduceBranchingWithRefiner split at its two public
// calls, so refinement and quotient construction time separately.
func (c *composer) quotient(l *lts.LTS) (*lts.LTS, error) {
	if q, ok := c.quotients[l]; ok {
		return q, nil
	}
	end := c.tr.begin("bisim.refine")
	alloc := totalAlloc()
	p, err := bisim.BranchingWithRefiner(c.ctx, l, c.refiner)
	if err != nil {
		end(nil)
		return nil, err
	}
	end(map[string]float64{
		"bisim.refine_rounds":    float64(p.Rounds),
		"bisim.blocks":           float64(p.Num),
		"bisim.refine_alloc_mib": mib(totalAlloc() - alloc),
	})
	end = c.tr.begin("bisim.quotient")
	q := bisim.Quotient(l, p)
	end(nil)
	c.quotients[l] = q
	return q, nil
}

func (c *composer) traceInclusion(implQ, specQ *lts.LTS) (bool, error) {
	end := c.tr.begin("refine.trace_incl")
	res, err := refine.TraceInclusion(implQ, specQ)
	if err != nil {
		end(nil)
		return false, err
	}
	end(map[string]float64{"refine.pairs": float64(res.PairsExplored)})
	return res.Included, nil
}

func (c *composer) explain(a, b *lts.LTS) error {
	end := c.tr.begin("bisim.explain")
	_, _, err := bisim.ExplainContext(c.ctx, a, b, bisim.KindBranching)
	end(nil)
	return err
}

func (c *composer) tauCyclic(l *lts.LTS) bool {
	end := c.tr.begin("lts.tau_cycle")
	_, cyclic := lts.HasTauCycle(l)
	end(nil)
	return cyclic
}

// divEquivalent decides a ≈div b on their disjoint union, as
// core.Session's equivalence stage does.
func (c *composer) divEquivalent(a, b *lts.LTS) (bool, error) {
	end := c.tr.begin("lts.union")
	u, initB, err := lts.DisjointUnion(a, b)
	end(nil)
	if err != nil {
		return false, err
	}
	end = c.tr.begin("bisim.equiv")
	p, err := bisim.DivergenceSensitiveBranchingWithRefiner(c.ctx, u, c.refiner)
	if err != nil {
		end(nil)
		return false, err
	}
	end(map[string]float64{"bisim.equiv_states": float64(u.NumStates())})
	return p.BlockOf[u.Init] == p.BlockOf[initB], nil
}

// totalAlloc is the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func mib(bytes uint64) float64 { return float64(bytes) / (1 << 20) }
