package machine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/lts"
	"repro/internal/statecodec"
)

// DefaultMaxStates bounds exploration when Options.MaxStates is zero.
const DefaultMaxStates = 2_000_000

// StateLimitError reports that exploration exceeded its state budget.
type StateLimitError struct {
	Program string
	Limit   int
}

// Error implements the error interface.
func (e *StateLimitError) Error() string {
	return fmt.Sprintf("machine: %s: state space exceeds limit of %d states", e.Program, e.Limit)
}

// CanceledError reports that an exploration was abandoned because its
// context was canceled or its deadline expired. It unwraps to the
// context's cause (context.Canceled or context.DeadlineExceeded), so
// errors.Is(err, context.Canceled) works as expected.
type CanceledError struct {
	Program string
	Cause   error
}

// Error implements the error interface.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("machine: %s: exploration canceled: %v", e.Program, e.Cause)
}

// Unwrap exposes the context cause.
func (e *CanceledError) Unwrap() error { return e.Cause }

// canceled builds the typed cancellation error for a context known to be
// done, preferring the cancel cause when one was recorded.
func canceled(ctx context.Context, prog string) error {
	return &CanceledError{Program: prog, Cause: context.Cause(ctx)}
}

// ModelFaultError reports that the model itself failed while its state
// space was generated: a statement panicked (a nil or dangling
// dereference, an exhausted heap, a foreign unlock, a goto past the end of
// its body), Program.Init panicked, or a successor held a value outside
// the state layout. The explorer returns the fault of the lowest state in
// discovery order, so the error is the same for every worker count and
// memory budget.
type ModelFaultError struct {
	Program string
	// Thread is the zero-based index of the faulting thread; -1 for a
	// fault in Program.Init.
	Thread int
	// Method and Label name the faulting step: the statement's label, or
	// "call" / "return" for the client's own bookkeeping steps, or "init".
	Method string
	Label  string
	// Pos is the statement's source position; the zero Pos for hand-coded
	// programs and bookkeeping steps.
	Pos Pos
	// Cause is the panic value, as an error.
	Cause error
}

// Error implements the error interface.
func (e *ModelFaultError) Error() string {
	return fmt.Sprintf("machine: %s: model runtime error in %s: %v", e.Program, e.site(), e.Cause)
}

// site names the faulting step: "t1 Push.P1 (file:line:col)", or "init".
func (e *ModelFaultError) site() string {
	site := "init"
	if e.Thread >= 0 {
		site = fmt.Sprintf("t%d %s.%s", e.Thread+1, e.Method, e.Label)
	}
	if e.Pos.IsValid() {
		site += " (" + e.Pos.String() + ")"
	}
	return site
}

// Unwrap exposes the cause.
func (e *ModelFaultError) Unwrap() error { return e.Cause }

// initSite is the fault site of Program.Init.
var initSite = symTrans{t: -1}

// newFault builds the typed fault for panic value r raised at step at.
func newFault(p *Program, at symTrans, r any) *ModelFaultError {
	cause, ok := r.(error)
	if !ok {
		cause = errors.New(fmt.Sprint(r))
	}
	e := &ModelFaultError{Program: p.Name, Thread: int(at.t), Label: "init", Cause: cause}
	if at.t < 0 {
		return e
	}
	m := &p.Methods[at.m]
	e.Method = m.Name
	switch at.kind {
	case symCall:
		e.Label = "call"
	case symRet:
		e.Label = "return"
	default:
		stmt := &m.Body[at.pc]
		e.Label, e.Pos = stmt.Label, stmt.Pos
		if e.Label == "" {
			e.Label = fmt.Sprint(at.pc)
		}
	}
	return e
}

// contain runs fn and returns the value of a panic raised inside it, or
// nil when fn returns normally. It is the fault boundary for model code
// run outside expander.expand: Program.Init and the pilots' single steps.
func contain(fn func()) (fault any) {
	defer func() { fault = recover() }()
	fn()
	return nil
}

// cancelCheckMask throttles context polling in exploration hot loops: the
// context is consulted once every cancelCheckMask+1 states.
const cancelCheckMask = 1023

// exploreObserver, when set, is called at the start of every exploration
// with the program being explored. It exists so tests can prove how often
// the expensive generation stage actually runs — e.g. that a core.Session
// explores each distinct program exactly once.
var exploreObserver atomic.Pointer[func(p *Program)]

// SetExploreObserver installs fn as the exploration observer and returns
// a function restoring the previous one. Intended for tests only; fn must
// be safe for concurrent calls.
func SetExploreObserver(fn func(p *Program)) (restore func()) {
	var prev *func(p *Program)
	if fn == nil {
		prev = exploreObserver.Swap(nil)
	} else {
		prev = exploreObserver.Swap(&fn)
	}
	return func() { exploreObserver.Store(prev) }
}

// Options configures state-space generation.
type Options struct {
	// Threads is the number of most-general-client threads (k in the
	// paper's #Th column).
	Threads int
	// Ops is the number of operations each thread may perform (#Op).
	Ops int
	// MaxStates bounds the exploration; 0 means DefaultMaxStates.
	MaxStates int
	// Workers is the number of exploration workers: 0 uses
	// runtime.GOMAXPROCS(0), and 1 is one worker. Every worker count
	// produces the same LTS, bit for bit (state IDs in BFS discovery
	// order, transitions in per-state emission order, identical alphabet
	// interning), so results, quotients and verdicts never depend on it.
	Workers int
	// Acts supplies a shared action alphabet so that several systems
	// (object, specification, abstraction) can be compared; nil allocates
	// a fresh one.
	Acts *lts.Alphabet
	// Labels supplies a shared diagnostic-label alphabet; nil allocates.
	Labels *lts.Alphabet
	// MemBudget bounds (approximately, in bytes) the resident state
	// storage of the exploration; past it, the store sheds closed
	// intern-table generations and frontier levels to temp files through
	// Backend.Spill. 0 keeps everything in RAM. The produced LTS is
	// byte-identical for every budget. A positive budget requires
	// Backend.Spill — the pure backend has nowhere to spill to.
	MemBudget int64
	// SpillDir is the parent directory for spill temp files; empty uses
	// the OS temp dir. All spill files live in a private subdirectory
	// removed when the exploration ends, on every exit path. Unused
	// without a budget.
	SpillDir string
	// Layout optionally supplies a narrowed state layout (vet interval
	// facts via vet.StateLayout); nil uses StructuralLayout. It must be
	// derived from this program under the same Threads and Ops; a
	// mis-shaped layout is ignored in favor of the structural one. The
	// layout never affects the produced LTS, only the bytes per state.
	Layout *statecodec.Layout
	// Reduction optionally supplies the τ-confluence partial-order
	// reduction artifact (vet's independence/confluence analysis via
	// vet.Reduce). When a state has a running thread at a statement the
	// artifact licenses, expansion follows the prioritized confluent
	// τ-chain and emits one compressed τ-transition to its end (interior
	// states are never interned; Info.Stats.PrunedStates counts the
	// compressed steps). The reduced LTS is smaller but divergence-sensitive
	// branching bisimilar to the full one, so every verdict and quotient
	// block count is unchanged; the pruning rule is a pure function of
	// state and artifact, so the reduced LTS stays byte-identical for
	// every worker count and memory budget. A mis-shaped artifact is
	// ignored. Nil disables reduction.
	Reduction *Reduction
	// Backend supplies the platform services of the exploration: the
	// spill filesystem and the process peak-RSS probe. The zero value
	// is fully functional and OS-free — states stay in RAM and RSS
	// telemetry reads as unknown. Platform callers pass
	// statestore.Runtime() to enable memory budgets and real telemetry. The choice never affects
	// the produced LTS.
	Backend statecodec.Backend
}

// ExploreStats is the storage telemetry of one exploration.
type ExploreStats struct {
	// States is the number of distinct states interned.
	States int
	// EncodedBytes is the summed encoded size of all interned states.
	EncodedBytes int64
	// PeakResidentBytes is the high-water mark of state storage held in
	// RAM (interned keys, table bookkeeping, hot frontier bytes).
	PeakResidentBytes int64
	// PeakRSSBytes is the OS-reported process peak RSS, measured at the
	// end of the exploration (process-wide and monotone across a run);
	// 0 when the exploration ran without a platform telemetry probe
	// (no Options.Backend.PeakRSS, non-Linux hosts, js/wasm). Consumers
	// must omit, not report, zero values.
	PeakRSSBytes int64
	// SpillFiles, TableFlushes and FrontierSpills count spill activity;
	// all zero when the exploration fit in its budget.
	SpillFiles     int
	TableFlushes   int
	FrontierSpills int
	// PrunedStates counts the explored states whose expansion was pruned
	// to a single prioritized confluent τ-successor by Options.Reduction;
	// 0 when no reduction artifact was installed (or it never applied).
	PrunedStates int64
	// CanonSkipped counts the successors keyed without running the heap
	// canonicalizer, because their step provably kept the canonical
	// form; KeyPatched counts the part of them keyed by re-encoding only
	// the stepping thread's bits of the predecessor's key.
	CanonSkipped int64
	KeyPatched   int64
	// Elapsed is the exploration wall-clock time.
	Elapsed time.Duration
}

// BytesPerState is the effective encoded size of one state.
func (s ExploreStats) BytesPerState() float64 {
	if s.States == 0 {
		return 0
	}
	return float64(s.EncodedBytes) / float64(s.States)
}

// StatesPerSec is the exploration throughput.
func (s ExploreStats) StatesPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.States) / s.Elapsed.Seconds()
}

// Info carries by-products of an exploration.
type Info struct {
	// Deadlocks lists the reachable states that have no outgoing
	// transition although some thread still has work (a pending method or
	// remaining operations). A lock-based object that can block all
	// clients forever shows up here; the all-operations-completed
	// terminal states do not.
	Deadlocks []int32
	// Stats is the exploration's storage telemetry.
	Stats ExploreStats
}

// ExploreWithInfoContext generates the LTS of the program under most
// general clients: every reachable interleaving of Threads clients each
// performing up to Ops method invocations, with every method and argument
// choice. Call and return actions are visible; every statement execution
// is a τ transition labeled (for diagnostics) with "t<i>.<stmt label>".
//
// When ctx is canceled or times out mid-exploration, it stops promptly —
// every worker and the level merge poll the context — and returns a
// *CanceledError wrapping the context cause. A model that faults returns
// a *ModelFaultError; a state space past MaxStates returns a
// *StateLimitError. Info carries the deadlock states and the storage
// telemetry.
func ExploreWithInfoContext(ctx context.Context, p *Program, opt Options) (*lts.LTS, *Info, error) {
	if err := validateOptions(p, opt); err != nil {
		return nil, nil, err
	}
	if obs := exploreObserver.Load(); obs != nil {
		(*obs)(p)
	}
	limit := opt.MaxStates
	if limit <= 0 {
		limit = DefaultMaxStates
	}
	acts := opt.Acts
	if acts == nil {
		acts = lts.NewAlphabet()
	}
	labels := opt.Labels
	if labels == nil {
		labels = lts.NewAlphabet()
	}
	cdc := newCodec(p, opt)
	if opt.Reduction != nil && !opt.Reduction.Matches(p) {
		opt.Reduction = nil
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opt.MemBudget > 0 && opt.Backend.Spill == nil {
		return nil, nil, fmt.Errorf("machine: %s: Options.MemBudget requires a spill-capable Options.Backend (e.g. statestore.Runtime()); the in-memory default cannot honor a budget", p.Name)
	}
	return explore(ctx, p, opt, cdc, acts, labels, limit, workers)
}

// validation helpers live on the option struct so both entry points share
// them.
func validateOptions(p *Program, opt Options) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if opt.Threads <= 0 || opt.Ops <= 0 {
		return fmt.Errorf("machine: %s: Threads and Ops must be positive", p.Name)
	}
	return nil
}

// initialState builds the start state of the most general client. It
// runs Program.Init, which may panic; callers contain it.
func initialState(p *Program, opt Options) *state {
	init := newScratchState(p, opt.Threads)
	if p.Init != nil {
		p.Init(init.g)
	}
	for i := range init.th {
		init.th[i].ops = int32(opt.Ops)
	}
	return init
}

// initialKey returns the canonical encoding of the start state. A panic
// in Program.Init, or an initial value outside the layout, is returned as
// a *ModelFaultError.
func initialKey(p *Program, opt Options, cdc codec) (key []byte, err error) {
	if r := contain(func() {
		init := initialState(p, opt)
		newCanonicalizer(p, p.HeapCap+1).run(init)
		key = cdc.encode(nil, init)
	}); r != nil {
		return nil, newFault(p, initSite, r)
	}
	return key, nil
}

// actKey packs (call?, thread, method, value) for the action cache.
func actKey(call bool, t, m int, v int32) int64 {
	k := int64(t)<<40 | int64(m)<<32 | int64(uint32(v))
	if call {
		k |= 1 << 62
	}
	return k
}

// actionInterner resolves the symbolic transitions produced by expandState
// to interned action and label IDs, memoized per (thread, method, value).
// The level merge resolves transitions in their deterministic emission
// order, so the alphabets receive identical IDs for every worker count.
type actionInterner struct {
	prog     *Program
	acts     *lts.Alphabet
	labels   *lts.Alphabet
	actCache map[int64]lts.ActionID
	lblCache map[int64]lts.LabelID
}

func newActionInterner(p *Program, acts, labels *lts.Alphabet) *actionInterner {
	return &actionInterner{
		prog:     p,
		acts:     acts,
		labels:   labels,
		actCache: make(map[int64]lts.ActionID),
		lblCache: make(map[int64]lts.LabelID),
	}
}

func (ai *actionInterner) callAction(t, m int, arg int32) lts.ActionID {
	k := actKey(true, t, m, arg)
	if id, ok := ai.actCache[k]; ok {
		return id
	}
	meth := &ai.prog.Methods[m]
	var name string
	if meth.Args == nil {
		name = fmt.Sprintf("t%d.call.%s", t+1, meth.Name)
	} else {
		format := ai.prog.FormatArg
		argStr := ""
		if format != nil {
			argStr = format(meth, arg)
		} else {
			argStr = FormatValue(arg)
		}
		name = fmt.Sprintf("t%d.call.%s(%s)", t+1, meth.Name, argStr)
	}
	id := ai.acts.ID(name)
	ai.actCache[k] = id
	return id
}

func (ai *actionInterner) retAction(t, m int, ret int32) lts.ActionID {
	k := actKey(false, t, m, ret)
	if id, ok := ai.actCache[k]; ok {
		return id
	}
	meth := &ai.prog.Methods[m]
	format := ai.prog.FormatRet
	var retStr string
	if format != nil {
		retStr = format(meth, ret)
	} else {
		retStr = FormatValue(ret)
	}
	name := fmt.Sprintf("t%d.ret.%s(%s)", t+1, meth.Name, retStr)
	id := ai.acts.ID(name)
	ai.actCache[k] = id
	return id
}

func (ai *actionInterner) stmtLabel(t, m, pc int) lts.LabelID {
	k := int64(t)<<40 | int64(m)<<16 | int64(pc)
	if id, ok := ai.lblCache[k]; ok {
		return id
	}
	stmt := &ai.prog.Methods[m].Body[pc]
	lbl := stmt.Label
	if lbl == "" {
		lbl = fmt.Sprintf("%s.%d", ai.prog.Methods[m].Name, pc)
	}
	id := lts.LabelID(ai.labels.ID(fmt.Sprintf("t%d.%s", t+1, lbl)))
	ai.lblCache[k] = id
	return id
}

// resolve maps a symbolic transition to its action and label IDs.
func (ai *actionInterner) resolve(tr symTrans) (lts.ActionID, lts.LabelID) {
	switch tr.kind {
	case symCall:
		return ai.callAction(int(tr.t), int(tr.m), tr.val), lts.NoLabel
	case symTau:
		return lts.Tau, ai.stmtLabel(int(tr.t), int(tr.m), int(tr.pc))
	default:
		return ai.retAction(int(tr.t), int(tr.m), tr.val), lts.NoLabel
	}
}

// newScratchState allocates a state shaped for the program. Scratch
// states are written on every step, so each of its parts sits on cache
// lines of its own (isolated).
func newScratchState(p *Program, threads int) *state {
	st := isolatedNew[state]()
	st.g = isolatedNew[Global]()
	st.g.Vars = isolated[int32](len(p.Globals.Names), len(p.Globals.Names))
	st.g.Heap = isolated[Node](p.HeapCap+1, p.HeapCap+1)
	st.th = isolated[thread](threads, threads)
	for i := range st.th {
		st.th[i].locals = isolated[int32](p.NLocals, p.NLocals)
	}
	return st
}

// allDone reports whether every thread is idle with no operations left —
// the legitimate terminal states of a bounded most-general client.
func allDone(st *state) bool {
	for i := range st.th {
		if st.th[i].status != statusIdle || st.th[i].ops != 0 {
			return false
		}
	}
	return true
}

// Kinds of symbolic transitions produced by expandState.
const (
	symCall int8 = iota
	symTau
	symRet
)

// symTrans is one transition in symbolic form: the action is identified
// by (kind, t, m, val) and the τ diagnostic label by (t, m, pc). The
// successor state sits in the expander's succ scratch when the sink runs.
type symTrans struct {
	kind int8
	t, m int32
	val  int32 // call argument or return value
	pc   int32 // statement index, for symTau labels
}

// transSink consumes the transitions produced by expandState.
type transSink interface {
	emit(x *expander, tr symTrans)
}

// expander bundles the per-worker scratch needed to enumerate the
// successors of one state: the statement's mutated copy of the current
// state (work), the per-outcome successor handed to the canonicalizer
// (succ, rewritten in place), the statement context, and a private
// canonicalizer. Every worker owns its own, so expansion never shares
// mutable state.
type expander struct {
	prog       *Program
	work, succ *state
	ctx        Ctx
	canon      *canonicalizer
	// at is the step being taken — the statement running or the
	// bookkeeping transition being emitted — which names the site of a
	// fault.
	at symTrans
	// red, when non-nil, licenses confluent-τ pruning in expandState;
	// pruned counts the prioritized expansions it replaced (one per
	// compressed chain step). chain is the private scratch the
	// chain-follower mutates; chainMax defensively bounds a chain
	// (acyclicity makes the bound unreachable for sound artifacts).
	red      *Reduction
	pruned   int64
	chain    *state
	chainMax int
	// class is the goto-outcome step class of every statement, by method
	// and pc (classifyProgram); succClass is the class of the step that
	// built succ, and key the intern key of the state being expanded,
	// which classLocal successors patch. canonSkipped counts successors
	// keyed without the canonicalizer, keyPatched those of them keyed by
	// patching key.
	class        [][]stepClass
	succClass    stepClass
	key          []byte
	canonSkipped int64
	keyPatched   int64
	// oracle, set while EnableKeyOracle is in effect, is the scratch
	// state checkKey canonicalizes in full; oracleBuf its encoding.
	oracle    *state
	oracleBuf []byte
}

func newExpander(p *Program, threads int) expander {
	total := 0
	for mi := range p.Methods {
		total += len(p.Methods[mi].Body)
	}
	x := expander{
		prog:     p,
		work:     newScratchState(p, threads),
		succ:     newScratchState(p, threads),
		canon:    newCanonicalizer(p, p.HeapCap+1),
		chain:    newScratchState(p, threads),
		chainMax: threads*total + 1,
		class:    classifyProgram(p),
		ctx:      Ctx{outs: isolated[outcome](0, outsCap)},
	}
	if keyOracle.Load() > 0 {
		x.oracle = newScratchState(p, threads)
	}
	return x
}

// outsCap is the outcome capacity an expander starts with, enough for
// every statement of the shipped models; a statement with more outcomes
// grows the buffer.
const outsCap = 8

// zeroArg is the argument list of no-argument methods.
var zeroArg = []int32{0}

// expand is expandState behind the fault boundary: a panic while
// expanding cur, decoded from key — in a statement, in canonicalization,
// or in the codec encoding a successor outside its layout — is returned
// as a *ModelFaultError naming the step that raised it. Transitions
// handed to the sink before the fault stay handed.
func (x *expander) expand(cur *state, key []byte, sink transSink) (n int, err error) {
	defer func() {
		if r := recover(); r != nil {
			if m, ok := r.(keyMismatch); ok {
				panic(m)
			}
			err = newFault(x.prog, x.at, r)
		}
	}()
	x.key = append(x.key[:0], key...)
	return x.expandState(cur, sink), nil
}

// tauClass is the step class of the statement outcome out of method m's
// statement pc.
func (x *expander) tauClass(m, pc int32, out outcome) stepClass {
	if out.pc < 0 {
		return classFull
	}
	return x.class[m][pc]
}

// step runs thread t's current statement on st in place, leaving its
// outcomes in x.ctx.outs.
func (x *expander) step(st *state, t int) {
	th := &st.th[t]
	x.at = symTrans{kind: symTau, t: int32(t), m: th.method, pc: th.pc}
	x.ctx = Ctx{T: t, Arg: th.arg, G: st.g, L: th.locals, outs: x.ctx.outs[:0]}
	x.prog.Methods[th.method].Body[th.pc].Exec(&x.ctx)
}

// advance applies one statement outcome to thread t of st: a return moves
// the thread to statusReturning with its frame cleared, a goto moves its
// pc.
func (x *expander) advance(st *state, t int, out outcome) {
	th := &st.th[t]
	if out.pc < 0 {
		th.status = statusReturning
		th.ret = out.ret
		th.pc = 0
		th.arg = 0
		clear(th.locals)
		return
	}
	if int(out.pc) >= len(x.prog.Methods[th.method].Body) {
		panic(fmt.Sprintf("goto %d beyond the end of the body", out.pc))
	}
	th.pc = out.pc
}

// expandState enumerates all transitions of cur in the deterministic
// order the LTS stores them — threads ascending; within a thread, methods
// and arguments in declaration order and statement outcomes in emission
// order — leaving each successor in x.succ for the sink. It returns the
// number of transitions handed to the sink.
//
// With a Reduction installed, a state with a running thread at a
// licensed confluent statement expands to a single compressed
// τ-transition: the prioritized chain — always the lowest licensed
// thread's single τ-successor, repeated while the successor is itself
// prioritized — is followed privately and only its final state is
// emitted. Every skipped state is divergence-sensitive branching
// bisimilar to the chain's end (each hop is an inert confluent τ), so
// the quotient is untouched while the skipped states never enter the
// LTS at all. The chain is a pure function of the canonical state and
// the artifact — a deterministic choice every worker makes alike,
// keeping the reduced LTS byte-identical across worker counts and memory
// budgets.
func (x *expander) expandState(cur *state, sink transSink) int {
	if x.red != nil {
		if t := x.red.pick(cur); t >= 0 {
			if n, ok := x.expandChain(cur, t, sink); ok {
				return n
			}
		}
	}
	emitted := 0
	for t := range cur.th {
		emitted += x.expandThread(cur, t, sink)
	}
	return emitted
}

// expandChain follows the prioritized confluent τ-chain from cur, whose
// thread t is licensed, and emits one τ-transition to the first state
// that is not itself prioritized. The transition carries the first
// step's diagnostic label; the action is τ either way. Returns ok=false
// without emitting anything when the first licensed statement does not
// produce exactly one outcome — the artifact mis-licensed it and the
// caller must fall back to full expansion.
func (x *expander) expandChain(cur *state, t int, sink transSink) (int, bool) {
	cur.copyInto(x.chain)
	var first symTrans
	// x.chain is canonical after every completed step.
	x.succClass = classCanon
	for steps := 0; ; {
		x.step(x.chain, t)
		if len(x.ctx.outs) != 1 {
			if steps == 0 {
				return 0, false
			}
			// Interior statements are licensed too, so this cannot
			// happen with a sound artifact; stop the chain before the
			// offending statement. A statement that blocked may have
			// written x.chain before its lock: key it in full.
			x.succClass = classFull
			break
		}
		if steps == 0 {
			first = x.at
		}
		x.advance(x.chain, t, x.ctx.outs[0])
		if x.tauClass(x.at.m, x.at.pc, x.ctx.outs[0]) == classFull {
			x.canon.run(x.chain)
		}
		steps++
		x.pruned++
		if steps >= x.chainMax {
			break
		}
		if t = x.red.pick(x.chain); t < 0 {
			break
		}
	}
	x.chain.copyInto(x.succ)
	sink.emit(x, first)
	return 1, true
}

// expandThread enumerates the transitions of thread t from state cur,
// returning how many it produced.
func (x *expander) expandThread(cur *state, t int, sink transSink) int {
	p := x.prog
	emitted := 0
	th := &cur.th[t]
	switch th.status {
	case statusIdle:
		if th.ops == 0 {
			return 0
		}
		for mi := range p.Methods {
			args := p.Methods[mi].Args
			if args == nil {
				args = zeroArg
			}
			for _, arg := range args {
				cur.copyInto(x.succ)
				nt := &x.succ.th[t]
				nt.status = statusRunning
				nt.method = int32(mi)
				nt.arg = arg
				nt.pc = 0
				nt.ops--
				clear(nt.locals)
				x.at = symTrans{kind: symCall, t: int32(t), m: int32(mi), val: arg}
				// An idle thread's locals are already zero: the call
				// changes thread t's registers only.
				x.succClass = classLocal
				emitted++
				sink.emit(x, x.at)
			}
		}
	case statusRunning:
		// The statement runs on the reusable work copy; its (shared)
		// mutations are visible to every outcome, per the Stmt contract.
		cur.copyInto(x.work)
		x.step(x.work, t)
		for _, out := range x.ctx.outs {
			x.work.copyInto(x.succ)
			x.advance(x.succ, t, out)
			x.succClass = x.tauClass(th.method, th.pc, out)
			emitted++
			sink.emit(x, x.at)
		}
	case statusReturning:
		cur.copyInto(x.succ)
		nt := &x.succ.th[t]
		nt.status = statusIdle
		nt.method = 0
		nt.ret = 0
		x.at = symTrans{kind: symRet, t: int32(t), m: th.method, val: th.ret}
		x.succClass = classLocal
		emitted++
		sink.emit(x, x.at)
	}
	return emitted
}
