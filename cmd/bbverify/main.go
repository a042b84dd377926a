// Command bbverify verifies the packaged concurrent data structures with
// the branching-bisimulation techniques of the paper.
//
//	bbverify list
//	bbverify check   [-threads N] [-ops N] [-max-states N] <algorithm>
//	bbverify check   -model file.bbvl
//	bbverify check   -spec job.json
//	bbverify explore [-threads N] [-ops N] [-quotient] [-dot F] [-aut F] <algorithm>
//	bbverify ktrace  [-threads N] [-ops N] <algorithm>
//	bbverify compile <file.bbvl>
//	bbverify examples [name]
//	bbverify vet     [-json] [-Werror] [-list] <file.bbvl ...> | -alg id | -all
//
// vet runs the pre-exploration static-analysis pass (internal/vet) on
// its own: findings print one per line at file:line:col, error-severity
// findings (and, under -Werror, warnings) make the command fail. check
// runs the same pass automatically before verifying.
//
// check runs one api "check" job — by default linearizability by
// quotient trace refinement (Theorem 5.3) and lock-freedom by
// divergence-sensitive branching bisimulation against the quotient
// (Theorem 5.9), or deadlock-freedom for lock-based objects; -checks
// selects others, including "abstract" (Theorem 5.8) — and prints the
// api.Result as JSON (-json) or renders it as text, counterexamples
// included. explore generates the state space, reports quotient sizes
// and optionally exports Graphviz/Aldebaran files. ktrace renders the api
// "ktrace" job: the algorithm's τ steps in the ≡ₖ hierarchy (Table I).
//
// Every analysis subcommand accepts -model file.bbvl in place of a
// registry algorithm ID: the BBVL model (see internal/bbvl and
// examples/bbvl) is compiled on the fly and verified against the builtin
// specification it declares. compile prints the compiled machine-level
// form of a model without running anything.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	bbvlexamples "repro/examples/bbvl"
	"repro/internal/algorithms"
	"repro/internal/api"
	"repro/internal/bbvl"
	"repro/internal/bisim"
	"repro/internal/core"
	"repro/internal/ltl"
	"repro/internal/lts"
	"repro/internal/machine"
	"repro/internal/refine"
	"repro/internal/statecodec"
	"repro/internal/statestore"
	"repro/internal/vet"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bbverify:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return nil
	}
	switch args[0] {
	case "list":
		return list()
	case "check":
		return check(args[1:])
	case "explore":
		return exploreCmd(args[1:])
	case "ktrace":
		return ktraceCmd(args[1:])
	case "compare":
		return compareCmd(args[1:])
	case "explain":
		return explainCmd(args[1:])
	case "ltl":
		return ltlCmd(args[1:])
	case "sweep":
		return sweepCmd(args[1:])
	case "compile":
		return compileCmd(args[1:])
	case "examples":
		return examplesCmd(args[1:])
	case "vet":
		return vetCmd(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q (try: list, check, explore, ktrace, compare, explain, ltl, sweep, compile, examples, vet)", args[0])
	}
}

func usage() {
	fmt.Println(`bbverify — concurrent object verification via branching bisimulation

subcommands:
  list                         list the packaged algorithms
  check   [flags] <algorithm>  verify linearizability (Thm 5.3) and lock-freedom (Thm 5.9);
                               -checks picks from linearizability, lockfree, deadlock
                               and abstract (Thm 5.8 against the abstract program);
                               -json emits the bbvd service's result schema (text
                               mode renders the same result);
                               -spec job.json runs a service job spec file instead;
                               -reduction prunes the exploration with the static
                               tau-confluence analysis (identical verdicts,
                               fewer states; model jobs only: for a registry
                               row, check -model examples/bbvl/<file>.bbvl
                               -reduction)
  explore [flags] <algorithm>  generate the state space and its quotient
  ktrace  [flags] <algorithm>  classify tau steps in the k-trace hierarchy (Table I)
  compare [flags] <algorithm>  compare the object with its specification under
                               weak / branching / divergence-sensitive bisimilarity
                               (Table VII), explaining any inequivalence
  explain [flags] <algorithm>  print a shortest distinguishing experiment between
                               the object and its specification when they are not
                               bisimilar (-kind branching | div-branching); the
                               experiment is replay-verified on the two systems
  ltl     [flags] <algorithm>  model-check next-free LTL progress properties
                               (-formula lockfree | completes:<Method>)
  sweep   [flags] <algorithm>  sweep the operation bound (Table III / Fig. 10
                               style): sizes, quotients, reduction, verdicts
  compile <file.bbvl>          print the compiled machine-level form of a model
  examples [name]              list the embedded example models, or print one
                               (the same catalogue the wasm playground embeds;
                               try: bbverify check -model <(bbverify examples treiber))
  vet     [flags] <file.bbvl>  run the pre-exploration static-analysis pass
                               (unreachable code, dead guards, unused variables,
                               value overflow, spec shape, tau cycles) without
                               exploring anything; -alg id / -all vet registry
                               algorithms, -list prints the analyzer catalogue,
                               -Werror exits non-zero on warnings, -json emits
                               machine-readable findings, -independence prints
                               the independence / tau-confluence report that
                               licenses the -reduction pruning

common flags: -threads N (default 2), -ops N (default 2), -vals 1,2, -max-states N,
              -workers N (exploration workers; 0 = all cores, 1 = one worker —
              results are identical for any value),
              -model file.bbvl (verify a BBVL model instead of a registry algorithm)`)
}

func list() error {
	fmt.Printf("%-18s %-34s %-14s %s\n", "ID", "Name", "Linearizable", "Lock-free")
	for _, a := range algorithms.All() {
		lf := fmt.Sprint(a.ExpectLockFree)
		if a.LockBased {
			lf = "n/a (lock-based)"
		}
		fmt.Printf("%-18s %-34s %-14v %s\n", a.ID, a.Display+" "+a.Ref, a.ExpectLinearizable, lf)
	}
	return nil
}

type commonFlags struct {
	fs        *flag.FlagSet
	threads   *int
	ops       *int
	vals      *string
	maxStates *int
	workers   *int
	model     *string
	membudget *string
}

func newFlags(name string) *commonFlags {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	return &commonFlags{
		fs:        fs,
		threads:   fs.Int("threads", 2, "number of client threads"),
		ops:       fs.Int("ops", 2, "operations per thread"),
		vals:      fs.String("vals", "", "comma-separated value universe (default algorithm-specific)"),
		maxStates: fs.Int("max-states", 0, "state budget (0 = default)"),
		workers:   fs.Int("workers", 0, "exploration workers (0 = all cores, 1 = one worker)"),
		model:     fs.String("model", "", "verify a BBVL model file instead of a registry algorithm"),
		membudget: fs.String("membudget", "", "resident state-storage budget per exploration, e.g. 64MiB or 2GiB; past it, state storage spills to temp files (default: all in RAM) — results are identical for any budget"),
	}
}

// job parses args and resolves the job of the given kind they describe
// on the platform backend (spill filesystem, real RSS probe).
func (c *commonFlags) job(kind string, args []string) (*api.Job, error) {
	if err := c.fs.Parse(args); err != nil {
		return nil, err
	}
	spec, err := c.spec(kind)
	if err != nil {
		return nil, err
	}
	return api.Resolve(spec, statestore.Runtime())
}

// spec builds the job spec the already-parsed flags and positional
// arguments describe: either one registry algorithm ID, or -model
// file.bbvl.
func (c *commonFlags) spec(kind string) (api.JobSpec, error) {
	spec := api.JobSpec{
		Kind:      kind,
		Threads:   *c.threads,
		Ops:       *c.ops,
		MaxStates: *c.maxStates,
		Workers:   *c.workers,
	}
	rest := c.fs.Args()
	if *c.model != "" {
		if len(rest) != 0 {
			return spec, fmt.Errorf("-model replaces the algorithm argument; drop %q", rest[0])
		}
		src, err := os.ReadFile(*c.model)
		if err != nil {
			return spec, err
		}
		spec.ModelSource, spec.ModelName = string(src), *c.model
	} else {
		if err := exactlyOne(rest, "algorithm ID", "expected exactly one algorithm ID (see `bbverify list`) or -model file.bbvl"); err != nil {
			return spec, err
		}
		spec.Algorithm = rest[0]
	}
	var err error
	if spec.Vals, err = parseVals(*c.vals); err != nil {
		return spec, err
	}
	if *c.membudget != "" {
		b, err := statecodec.ParseBudget(*c.membudget)
		if err != nil {
			return spec, fmt.Errorf("bad -membudget: %w", err)
		}
		// Round up to the spec's MiB granularity, so a budget is never
		// silently loosened away.
		spec.MemBudgetMB = int((b + (1 << 20) - 1) >> 20)
	}
	return spec, nil
}

// exactlyOne checks that flag parsing left exactly one positional
// argument, failing with msg otherwise. Go's flag parser stops at the
// first positional argument, so in `check ms-queue -threads 2` the flag
// is left over: that error names it instead.
func exactlyOne(rest []string, what, msg string) error {
	if len(rest) == 1 {
		return nil
	}
	for _, a := range rest[min(1, len(rest)):] {
		if len(a) > 1 && a[0] == '-' {
			return fmt.Errorf("flag %s after %s is not parsed: flags go before the %s", a, rest[0], what)
		}
	}
	return errors.New(msg)
}

// parseVals parses a comma-separated -vals flag.
func parseVals(s string) ([]int32, error) {
	if s == "" {
		return nil, nil
	}
	var vals []int32
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -vals: %w", err)
		}
		vals = append(vals, int32(v))
	}
	return vals, nil
}

func check(args []string) error {
	cf := newFlags("check")
	jsonOut := cf.fs.Bool("json", false, "emit the result as JSON (the same schema the bbvd service returns)")
	specFile := cf.fs.String("spec", "", "run an api.JobSpec JSON file (strict decode) and print the result JSON")
	verbose := cf.fs.Bool("v", false, "print a per-stage table (explore/quotient/equivalence...: wall time, sizes, refinement rounds, cache hits)")
	checksFlag := cf.fs.String("checks", "", "comma-separated checks to run against one shared session: linearizability,lockfree,deadlock,abstract (default: linearizability plus lockfree or deadlock)")
	reduction := cf.fs.Bool("reduction", false, "enable the static tau-confluence partial-order reduction (model jobs only — a no-op for a registry ID; reduce a registry row with -model examples/bbvl/<file>.bbvl; verdicts are identical, the explored state space shrinks)")
	if err := cf.fs.Parse(args); err != nil {
		return err
	}
	if *specFile != "" {
		if cf.fs.NArg() != 0 || *cf.model != "" {
			return fmt.Errorf("-spec runs a self-contained job file; drop the algorithm/-model arguments")
		}
		return runSpecFile(*specFile)
	}
	spec, err := cf.spec(api.KindCheck)
	if err != nil {
		return err
	}
	if *checksFlag != "" {
		for _, c := range strings.Split(*checksFlag, ",") {
			spec.Checks = append(spec.Checks, strings.TrimSpace(c))
		}
	}
	spec.Reduction = *reduction
	job, res, err := runJob(spec)
	if err != nil {
		return err
	}
	if *jsonOut {
		return api.EncodeResult(os.Stdout, res)
	}
	for _, w := range res.Warnings {
		fmt.Fprintln(os.Stderr, w.String())
	}
	printCheck(os.Stdout, job.Alg.Display, res)
	if *verbose {
		printStageTable(res.Stages)
	}
	return nil
}

// runSpecFile executes one service job spec from disk — the same strict
// decoding and runner the bbvd daemon uses, so a job file debugs
// identically offline.
func runSpecFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spec, err := api.DecodeJobSpec(f)
	if err != nil {
		return err
	}
	_, res, err := runJob(spec)
	if err != nil {
		return err
	}
	return api.EncodeResult(os.Stdout, res)
}

// runJob runs spec through the job path every front end shares: resolve,
// the vet gate (error findings print to stderr and abort before
// exploration, as in the bbvd daemon), then the shared runner.
func runJob(spec api.JobSpec) (*api.Job, *api.Result, error) {
	job, err := api.Resolve(spec, statestore.Runtime())
	if err != nil {
		return nil, nil, err
	}
	res, err := job.RunVetted(context.Background())
	if err != nil {
		var ve *api.VetError
		if errors.As(err, &ve) {
			for _, f := range ve.Findings {
				fmt.Fprintln(os.Stderr, f.String())
			}
		}
		return nil, nil, err
	}
	return job, res, nil
}

// printCheck renders a check result as text: one verdict line per check
// in res.Check.ChecksRun, in that order, each followed by its diagnostic
// when the verdict is negative.
func printCheck(w io.Writer, display string, res *api.Result) {
	c := res.Check
	fmt.Fprintf(w, "== %s (%d threads x %d ops) ==\n", display, res.Spec.Threads, res.Spec.Ops)
	for _, name := range c.ChecksRun {
		switch name {
		case api.CheckLinearizability:
			fmt.Fprintf(w, "linearizability (Thm 5.3): %s   [%d states, quotient %d, spec quotient %d]\n",
				verdict(c.Linearizable), c.ImplStates, c.ImplQuotientStates, c.SpecQuotientStates)
			if !c.Linearizable {
				fmt.Fprintln(w, "non-linearizable history:")
				fmt.Fprint(w, indent((&refine.Counterexample{Trace: c.LinCounterexample}).Format()))
				if e := c.Distinguishing; e != nil {
					fmt.Fprintln(w, "quotient distinguishing experiment:")
					fmt.Fprintf(w, "  not %s bisimilar: the initial states separate at refinement round %d\n", e.Kind, e.Round)
					fmt.Fprintf(w, "  shortest distinguishing experiment (%d steps):\n", len(e.Steps))
					for i, step := range e.Steps {
						fmt.Fprintf(w, "    %d. %s\n", i+1, step)
					}
				}
			}
		case api.CheckLockFree:
			fmt.Fprintf(w, "lock-freedom (Thm %s): %s   [%d states]\n", c.LockFreeTheorem, verdict(*c.LockFree), c.ImplStates)
			printPath(w, "divergence", c.Divergence)
		case api.CheckAbstract:
			a := c.Abstract
			fmt.Fprintf(w, "lock-freedom (Thm 5.8 (abstract)): %s   [object =div-bisim= abstract: %v, abstract %d states]\n",
				verdict(a.LockFree), a.Bisimilar, a.AbstractStates)
			printPath(w, "divergence", a.Divergence)
		case api.CheckDeadlock:
			if c.LockBased && !slices.Contains(c.ChecksRun, api.CheckLockFree) {
				fmt.Fprintf(w, "lock-freedom: skipped (lock-based algorithm); deadlock-free: %s\n", verdict(*c.DeadlockFree))
			} else {
				fmt.Fprintf(w, "deadlock-free: %s   [%d states]\n", verdict(*c.DeadlockFree), c.ImplStates)
			}
			printPath(w, "deadlock witness", c.DeadlockWitness)
		}
	}
}

// printPath renders a diagnostic path under a title, if there is one.
func printPath(w io.Writer, title string, p *api.PathJSON) {
	if p == nil {
		return
	}
	fmt.Fprintf(w, "%s:\n  <initial state>\n", title)
	for i, step := range p.Steps {
		if i == p.CycleStart {
			fmt.Fprintln(w, "  -- cycle starts here (divergence) --")
		}
		fmt.Fprintf(w, "  %s\n", step)
	}
	if p.CycleStart >= 0 {
		fmt.Fprintln(w, "  -- loop (divergence) --")
	}
}

// printStageTable renders the job's per-stage instrumentation.
func printStageTable(stages []api.StageJSON) {
	sizes := func(st, tr int) string {
		if st == 0 && tr == 0 {
			return "-"
		}
		return fmt.Sprintf("%d/%d", st, tr)
	}
	fmt.Println("\npipeline stages:")
	fmt.Printf("  %-16s %-34s %10s %16s %16s %7s %7s\n",
		"stage", "target", "time(ms)", "in(st/tr)", "out(st/tr)", "rounds", "cached")
	for _, st := range stages {
		rounds := "-"
		if st.Rounds > 0 {
			rounds = fmt.Sprint(st.Rounds)
		}
		cached := ""
		if st.Cached {
			cached = "yes"
		}
		fmt.Printf("  %-16s %-34s %10.2f %16s %16s %7s %7s\n",
			st.Stage, st.Target, float64(st.ElapsedUS)/1e3,
			sizes(st.StatesIn, st.TransitionsIn), sizes(st.StatesOut, st.TransitionsOut),
			rounds, cached)
	}
	printStorageTable(os.Stdout, stages)
}

// printStorageTable renders the explore stages' state-storage telemetry
// (bytes per state, throughput, spilling, peak RSS), skipped
// entirely when no stage carries any. The peak-RSS column only appears
// when some stage actually measured one: a zero reading means the
// platform probe is unavailable (non-Linux, js/wasm, pure backend), and
// printing "0 B" would misreport a measurement that never happened.
func printStorageTable(w io.Writer, stages []api.StageJSON) {
	any, anyRSS := false, false
	for _, st := range stages {
		if st.Stage == core.StageExplore {
			any = true
		}
		if st.PeakRSSBytes > 0 {
			anyRSS = true
		}
	}
	if !any {
		return
	}
	fmt.Fprintln(w, "\nstate storage:")
	fmt.Fprintf(w, "  %-34s %8s %12s %6s %12s %12s", "target", "B/state", "states/s", "spill", "canon-skip", "key-patch")
	if anyRSS {
		fmt.Fprintf(w, " %12s", "peak RSS")
	}
	fmt.Fprintln(w)
	for _, st := range stages {
		if st.Stage != core.StageExplore {
			continue
		}
		spill := "-"
		if st.SpillFiles > 0 {
			spill = fmt.Sprint(st.SpillFiles)
		}
		fmt.Fprintf(w, "  %-34s %8.2f %12.0f %6s %12d %12d",
			st.Target, st.BytesPerState, st.StatesPerSec, spill, st.CanonSkipped, st.KeyPatched)
		if anyRSS {
			fmt.Fprintf(w, " %12s", statecodec.FormatBytes(st.PeakRSSBytes))
		}
		fmt.Fprintln(w)
	}
}

func exploreCmd(args []string) error {
	cf := newFlags("explore")
	dotFile := cf.fs.String("dot", "", "write the quotient in Graphviz format")
	autFile := cf.fs.String("aut", "", "write the full LTS in Aldebaran (.aut) format")
	job, err := cf.job(api.KindExplore, args)
	if err != nil {
		return err
	}
	ctx := context.Background()
	sess := core.NewSession(job.Config)
	l, info, err := sess.ExploreWithInfoContext(ctx, job.Alg.Build(job.AlgConfig))
	if err != nil {
		return err
	}
	q, err := sess.QuotientContext(ctx, l)
	if err != nil {
		return err
	}
	fmt.Printf("%s (%d threads x %d ops)\n", job.Alg.Display, job.Spec.Threads, job.Spec.Ops)
	fmt.Printf("states:       %d\n", l.NumStates())
	fmt.Printf("transitions:  %d (%d tau)\n", l.NumTransitions(), l.CountTau())
	fmt.Printf("memory:       %.2f B/state, %.0f states/s",
		info.Stats.BytesPerState(), info.Stats.StatesPerSec())
	if rss := info.Stats.PeakRSSBytes; rss > 0 {
		fmt.Printf(", peak RSS %s", statecodec.FormatBytes(rss))
	}
	if info.Stats.SpillFiles > 0 {
		fmt.Printf(", spilled to %d temp files", info.Stats.SpillFiles)
	}
	fmt.Println()
	fmt.Printf("quotient:     %d states, %d transitions (reduction %.1fx)\n",
		q.NumStates(), q.NumTransitions(), float64(l.NumStates())/float64(q.NumStates()))
	fmt.Printf("blocks:       %d\n", q.NumStates())
	if _, cyc := lts.HasTauCycle(l); cyc {
		fmt.Println("divergence:   the system has a tau cycle (not lock-free)")
	} else {
		fmt.Println("divergence:   none (lock-free)")
	}
	if *dotFile != "" {
		f, err := os.Create(*dotFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := lts.WriteDOT(f, q, job.Alg.ID+"-quotient"); err != nil {
			return err
		}
		fmt.Printf("wrote quotient DOT to %s\n", *dotFile)
	}
	if *autFile != "" {
		f, err := os.Create(*autFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := lts.WriteAUT(f, l); err != nil {
			return err
		}
		fmt.Printf("wrote LTS AUT to %s\n", *autFile)
	}
	return nil
}

// ktraceCmd renders the api "ktrace" job.
func ktraceCmd(args []string) error {
	job, err := newFlags("ktrace").job(api.KindKTrace, args)
	if err != nil {
		return err
	}
	res, err := job.Run(context.Background(), nil)
	if err != nil {
		return err
	}
	kt := res.KTrace
	fmt.Printf("%s (%d threads x %d ops): %d states, quotient %d\n",
		job.Alg.Display, job.Spec.Threads, job.Spec.Ops, kt.States, kt.QuotientStates)
	fmt.Printf("k-trace hierarchy cap: %d (converged: %v)\n", kt.Cap, kt.Converged)
	for i, n := range kt.LevelClasses {
		fmt.Printf("  level %d: %d classes\n", i+1, n)
	}
	if kt.Neq1Label != "" {
		fmt.Printf("tau step with endpoints neq-1: %s\n", kt.Neq1Label)
	}
	if kt.Eq1Neq2Label != "" {
		fmt.Printf("tau step with endpoints eq-1 but neq-2: %s (trace-invisible effect, cf. Fig. 6)\n", kt.Eq1Neq2Label)
	} else {
		fmt.Println("no (eq-1, neq-2) tau step at this instance size")
	}
	return nil
}

func compareCmd(args []string) error {
	ctx := context.Background()
	job, err := newFlags("compare").job(api.KindExplore, args)
	if err != nil {
		return err
	}
	sess := core.NewSession(job.Config)
	impl, _, err := sess.ExploreWithInfoContext(ctx, job.Alg.Build(job.AlgConfig))
	if err != nil {
		return err
	}
	specLTS, _, err := sess.ExploreWithInfoContext(ctx, job.Alg.Spec(job.AlgConfig))
	if err != nil {
		return err
	}
	implQ, err := sess.QuotientContext(ctx, impl)
	if err != nil {
		return err
	}
	specQ, err := sess.QuotientContext(ctx, specLTS)
	if err != nil {
		return err
	}
	fmt.Printf("== %s vs specification (%d threads x %d ops) ==\n", job.Alg.Display, job.Spec.Threads, job.Spec.Ops)
	fmt.Printf("object: %d states (quotient %d)   spec: %d states (quotient %d)\n",
		impl.NumStates(), implQ.NumStates(), specLTS.NumStates(), specQ.NumStates())
	// All notions are decided on the quotients (sound: every system is
	// branching bisimilar to its quotient and ~br refines the others);
	// only the divergence-sensitive notions must use the full systems,
	// since quotienting erases divergence.
	for _, k := range []bisim.Kind{bisim.KindWeak, bisim.KindDivWeak, bisim.KindBranching, bisim.KindDivBranching} {
		var eq bool
		if k == bisim.KindDivWeak || k == bisim.KindDivBranching {
			eq, err = sess.EquivalentContext(ctx, impl, specLTS, k)
		} else {
			eq, err = sess.EquivalentContext(ctx, implQ, specQ, k)
		}
		if err != nil {
			return err
		}
		fmt.Printf("%-35s %v\n", k.String()+" bisimilar:", eq)
	}
	exp, bad, err := sess.ExplainContext(ctx, implQ, specQ, bisim.KindBranching)
	if err != nil {
		return fmt.Errorf("explaining the quotient difference: %w", err)
	}
	if bad {
		fmt.Println()
		fmt.Print(exp.Format())
	}
	return nil
}

// explainCmd prints a shortest distinguishing experiment between an
// object and its specification, or reports bisimilarity. The experiment
// is extracted from the splitting tree of the refinement, mapped back to
// states of the two explored systems, and replay-verified before
// printing — a failed replay is an engine bug and aborts the command.
func explainCmd(args []string) error {
	ctx := context.Background()
	cf := newFlags("explain")
	kindFlag := cf.fs.String("kind", "branching", "bisimulation notion to explain: branching or div-branching")
	job, err := cf.job(api.KindExplore, args)
	if err != nil {
		return err
	}
	var kind bisim.Kind
	switch *kindFlag {
	case "branching":
		kind = bisim.KindBranching
	case "div-branching":
		kind = bisim.KindDivBranching
	default:
		return fmt.Errorf("unknown -kind %q (want branching or div-branching)", *kindFlag)
	}
	sess := core.NewSession(job.Config)
	impl, _, err := sess.ExploreWithInfoContext(ctx, job.Alg.Build(job.AlgConfig))
	if err != nil {
		return err
	}
	specLTS, _, err := sess.ExploreWithInfoContext(ctx, job.Alg.Spec(job.AlgConfig))
	if err != nil {
		return err
	}
	fmt.Printf("== %s vs specification (%d threads x %d ops, %s) ==\n", job.Alg.Display, job.Spec.Threads, job.Spec.Ops, kind)
	fmt.Printf("object: %d states   spec: %d states\n", impl.NumStates(), specLTS.NumStates())
	exp, bad, err := sess.ExplainContext(ctx, impl, specLTS, kind)
	if err != nil {
		return err
	}
	if !bad {
		fmt.Printf("the systems are %s bisimilar; there is no distinguishing experiment\n", kind)
		return nil
	}
	if err := exp.Verify(impl, specLTS); err != nil {
		return fmt.Errorf("internal error: extracted experiment fails replay: %w", err)
	}
	fmt.Println()
	fmt.Print(exp.Format())
	fmt.Println("experiment verified by replay on both systems")
	return nil
}

func ltlCmd(args []string) error {
	cf := newFlags("ltl")
	formula := cf.fs.String("formula", "lockfree", "lockfree, or completes:<Method>")
	job, err := cf.job(api.KindExplore, args)
	if err != nil {
		return err
	}
	var f *ltl.Formula
	switch {
	case *formula == "lockfree":
		f = ltl.LockFreedom()
	case strings.HasPrefix(*formula, "completes:"):
		f = ltl.MethodCompletes(strings.TrimPrefix(*formula, "completes:"))
	default:
		return fmt.Errorf("unknown formula %q (use lockfree or completes:<Method>)", *formula)
	}
	l, err := core.ExploreContext(context.Background(), job.Alg.Build(job.AlgConfig), job.Config)
	if err != nil {
		return err
	}
	res, err := ltl.Check(l, f)
	if err != nil {
		return err
	}
	fmt.Printf("== %s (%d threads x %d ops) ==\n", job.Alg.Display, job.Spec.Threads, job.Spec.Ops)
	fmt.Printf("formula: %s\n", f)
	fmt.Printf("holds on all maximal executions: %v   [%d states, product %d]\n",
		res.Holds, l.NumStates(), res.ProductStates)
	if !res.Holds {
		fmt.Println("counterexample lasso:")
		for _, a := range res.Prefix {
			fmt.Printf("  %q\n", a)
		}
		fmt.Println("  -- cycle repeats forever --")
		for _, a := range res.Cycle {
			fmt.Printf("  %q\n", a)
		}
	}
	return nil
}

func sweepCmd(args []string) error {
	cf := newFlags("sweep")
	opsMax := cf.fs.Int("ops-max", 5, "largest operations-per-thread bound")
	job, err := cf.job(api.KindExplore, args)
	if err != nil {
		return err
	}
	alg := job.Alg
	fmt.Printf("== %s sweep: %d threads, 1..%d ops ==\n", alg.Display, job.Spec.Threads, *opsMax)
	fmt.Printf("%-5s %-10s %-10s %-10s %-10s %s\n", "#Op", "states", "quotient", "reduction", "lock-free", "time(s)")
	for ops := 1; ops <= *opsMax; ops++ {
		a, cfg := job.AlgConfig, job.Config
		a.Ops, cfg.Ops = ops, ops
		start := time.Now()
		l, err := core.ExploreContext(context.Background(), alg.Build(a), cfg)
		if err != nil {
			var lim *machine.StateLimitError
			if errors.As(err, &lim) {
				fmt.Printf("%-5d (exceeds the state budget of %d)\n", ops, lim.Limit)
				return nil
			}
			return err
		}
		q, _, err := bisim.ReduceBranchingContext(context.Background(), l)
		if err != nil {
			return err
		}
		lf := "-"
		if !alg.LockBased {
			if _, cyc := lts.HasTauCycle(l); cyc {
				lf = "No"
			} else {
				lf = "Yes"
			}
		}
		fmt.Printf("%-5d %-10d %-10d %-10.1f %-10s %.2f\n",
			ops, l.NumStates(), q.NumStates(),
			float64(l.NumStates())/float64(q.NumStates()), lf, time.Since(start).Seconds())
	}
	return nil
}

// compileCmd loads a BBVL model and prints its compiled machine-level
// form: the schema, the node-field layout, the local register slots and
// every resolved method body.
func compileCmd(args []string) error {
	fs := flag.NewFlagSet("compile", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := exactlyOne(fs.Args(), "model file", "expected exactly one model file (bbverify compile file.bbvl)"); err != nil {
		return err
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	m, err := bbvl.Load(fs.Arg(0), src)
	if err != nil {
		return err
	}
	fmt.Print(m.Dump())
	return nil
}

// examplesCmd lists or prints the embedded example models. The bytes
// come from the same go:embed catalogue the wasm playground ships
// (repro/examples/bbvl), which a test pins byte-identical to the files
// under examples/bbvl.
func examplesCmd(args []string) error {
	fs := flag.NewFlagSet("examples", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch fs.NArg() {
	case 0:
		for _, name := range bbvlexamples.Names() {
			src, err := bbvlexamples.Source(name)
			if err != nil {
				return err
			}
			fmt.Printf("%-20s %4d lines\n", name, strings.Count(string(src), "\n"))
		}
		return nil
	case 1:
		src, err := bbvlexamples.Source(fs.Arg(0))
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(src)
		return err
	default:
		return fmt.Errorf("expected at most one model name (bbverify examples [name])")
	}
}

// vetCmd runs the pre-exploration static-analysis pass on its own:
// over BBVL model files (positional arguments) or registry algorithms
// (-alg id, -all), without exploring any state space. Findings print
// one per line in file:line:col form; the command fails when any
// finding has error severity, or on any finding at all under -Werror.
func vetCmd(args []string) error {
	fs := flag.NewFlagSet("vet", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	werror := fs.Bool("Werror", false, "treat warnings as errors (non-zero exit on any finding)")
	listOnly := fs.Bool("list", false, "print the analyzer catalogue and exit")
	threads := fs.Int("threads", 2, "number of client threads the analysis assumes")
	ops := fs.Int("ops", 2, "operations per thread the analysis assumes")
	valsFlag := fs.String("vals", "", "comma-separated value universe (default algorithm-specific)")
	algID := fs.String("alg", "", "vet a registry algorithm instead of model files")
	all := fs.Bool("all", false, "vet every registry algorithm")
	indep := fs.Bool("independence", false, "print the independence / tau-confluence analysis report instead of findings")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listOnly {
		infos := api.ListAnalyzers()
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(infos)
		}
		for _, in := range infos {
			fmt.Printf("%-12s %-8s %s\n", in.ID, in.Severity, in.Description)
		}
		return nil
	}
	vals, err := parseVals(*valsFlag)
	if err != nil {
		return err
	}

	var specs []api.JobSpec
	base := api.JobSpec{Kind: api.KindCheck, Threads: *threads, Ops: *ops, Vals: vals}
	switch {
	case *all:
		if *algID != "" || fs.NArg() != 0 {
			return fmt.Errorf("-all vets the whole registry; drop the other targets")
		}
		for _, a := range algorithms.All() {
			s := base
			s.Algorithm = a.ID
			specs = append(specs, s)
		}
	case *algID != "":
		if fs.NArg() != 0 {
			return fmt.Errorf("-alg replaces the model file arguments; drop %q", fs.Arg(0))
		}
		s := base
		s.Algorithm = *algID
		specs = append(specs, s)
	default:
		if fs.NArg() == 0 {
			return fmt.Errorf("expected model files to vet (bbverify vet file.bbvl...), -alg id, or -all")
		}
		for _, path := range fs.Args() {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			s := base
			s.ModelSource = string(src)
			s.ModelName = path
			specs = append(specs, s)
		}
	}

	if *indep {
		return vetIndependence(specs, *jsonOut)
	}

	var findings []api.VetFinding
	hasErrors := false
	for _, spec := range specs {
		fs, err := api.VetSpec(spec)
		if err != nil {
			var ve *api.VetError
			if !errors.As(err, &ve) {
				return err // the program does not even load: parse/type error
			}
			hasErrors = true
		}
		findings = append(findings, fs...)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			return err
		}
	} else {
		for _, f := range findings {
			fmt.Println(f.String())
		}
	}
	switch {
	case hasErrors:
		return fmt.Errorf("vet failed")
	case *werror && len(findings) > 0:
		return fmt.Errorf("vet found warnings (-Werror)")
	}
	return nil
}

// vetIndependence prints the independence / τ-confluence report for
// each target: the statement footprints, the verified spin locks, and
// the confluent (reduction-licensed) statement set. Programs without IR
// (hand-coded registry encodings) report that nothing is licensed.
func vetIndependence(specs []api.JobSpec, jsonOut bool) error {
	type entry struct {
		Target   string                 `json:"target"`
		Artifact *vet.ReductionArtifact `json:"artifact"` // nil: no IR, nothing licensed
	}
	var entries []entry
	for _, spec := range specs {
		target := spec.Algorithm
		if target == "" {
			target = spec.ModelName
		}
		art, err := api.IndependenceReport(spec)
		if err != nil {
			return err
		}
		entries = append(entries, entry{Target: target, Artifact: art})
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(entries)
	}
	for i, e := range entries {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("== %s ==\n", e.Target)
		if e.Artifact == nil {
			fmt.Println("no IR (hand-coded program); no reduction licensed")
			continue
		}
		fmt.Print(e.Artifact.Format())
	}
	return nil
}

func verdict(ok bool) string {
	if ok {
		return "OK"
	}
	return "VIOLATED"
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ") + "\n"
}
