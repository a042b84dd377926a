package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/lts"
	"repro/internal/statecodec"
)

func TestRunUsageAndList(t *testing.T) {
	if err := run(nil); err != nil {
		t.Fatalf("no-arg usage: %v", err)
	}
	if err := run([]string{"help"}); err != nil {
		t.Fatalf("help: %v", err)
	}
	if err := run([]string{"list"}); err != nil {
		t.Fatalf("list: %v", err)
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Fatal("unknown subcommand must error")
	}
}

func TestRunCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	for _, args := range [][]string{
		{"check", "-threads", "2", "-ops", "1", "treiber"},
		{"check", "-threads", "2", "-ops", "1", "-vals", "1", "ms-queue"},
		{"check", "-threads", "2", "-ops", "1", "lazy-list"},
		{"check", "-threads", "3", "-ops", "1", "hw-queue"},
		{"check", "-threads", "2", "-ops", "2", "hm-list-buggy"},
	} {
		if err := run(args); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
	if err := run([]string{"check", "unknown-alg"}); err == nil {
		t.Fatal("unknown algorithm must error")
	}
	if err := run([]string{"check"}); err == nil {
		t.Fatal("missing algorithm must error")
	}
	if err := run([]string{"check", "-vals", "x", "treiber"}); err == nil {
		t.Fatal("bad -vals must error")
	}
	if err := run([]string{"check", "-threads", "2", "-ops", "2", "-max-states", "5", "treiber"}); err == nil {
		t.Fatal("tiny state budget must error")
	}
}

func TestRunExploreAndKtrace(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	dir := t.TempDir()
	dot := filepath.Join(dir, "q.dot")
	aut := filepath.Join(dir, "l.aut")
	if err := run([]string{"explore", "-threads", "2", "-ops", "1", "-dot", dot, "-aut", aut, "treiber"}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{dot, aut} {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("%s not written: %v", f, err)
		}
		if len(data) == 0 {
			t.Fatalf("%s empty", f)
		}
	}
	if !strings.Contains(readFile(t, dot), "digraph") {
		t.Error("dot output malformed")
	}
	if !strings.HasPrefix(readFile(t, aut), "des (") {
		t.Error("aut output malformed")
	}
	if err := run([]string{"ktrace", "-threads", "3", "-ops", "1", "hw-queue"}); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestRunCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	if err := run([]string{"compare", "-threads", "2", "-ops", "1", "treiber"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"compare", "-threads", "2", "-ops", "2", "-vals", "1", "ms-queue"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"compare"}); err == nil {
		t.Fatal("missing algorithm must error")
	}
}

func TestRunLTL(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	if err := run([]string{"ltl", "-threads", "3", "-ops", "1", "hw-queue"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"ltl", "-formula", "completes:Pop", "-threads", "2", "-ops", "1", "treiber"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"ltl", "-formula", "bogus", "treiber"}); err == nil {
		t.Fatal("bad formula must error")
	}
}

func TestRunSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	if err := run([]string{"sweep", "-threads", "2", "-ops-max", "2", "-vals", "1", "ms-queue"}); err != nil {
		t.Fatal(err)
	}
	// A tiny budget reports the cap instead of erroring.
	if err := run([]string{"sweep", "-threads", "2", "-ops-max", "3", "-max-states", "50", "treiber"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunCheckJSON pins the -json output: it must be the bbvd service's
// result schema (api.Result), machine-parseable from stdout.
func TestRunCheckJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run([]string{"check", "-json", "-threads", "2", "-ops", "1", "treiber"})
	w.Close()
	os.Stdout = old
	if runErr != nil {
		t.Fatal(runErr)
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	var res api.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("check -json output is not an api.Result: %v\n%s", err, raw)
	}
	if res.Spec.Kind != api.KindCheck || res.Spec.Algorithm != "treiber" {
		t.Fatalf("result echoes the wrong spec: %+v", res.Spec)
	}
	if res.Check == nil || !res.Check.Linearizable {
		t.Fatalf("treiber 2x1 must report linearizable: %+v", res.Check)
	}
	if res.Check.LockFree == nil || !*res.Check.LockFree {
		t.Fatalf("treiber 2x1 must report lock-free: %+v", res.Check)
	}
	if !strings.Contains(string(raw), `"linearizable"`) {
		t.Fatal("JSON field names must match the service wire format")
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	fnErr := fn()
	w.Close()
	os.Stdout = old
	raw, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if fnErr != nil {
		t.Fatalf("%v\noutput:\n%s", fnErr, raw)
	}
	return string(raw)
}

// TestRunCheckModel verifies a BBVL model file end to end through the
// CLI, in both the human and the -json output modes.
func TestRunCheckModel(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	model := filepath.Join("..", "..", "examples", "bbvl", "treiber.bbvl")
	out := captureStdout(t, func() error {
		return run([]string{"check", "-threads", "2", "-ops", "1", "-model", model})
	})
	if !strings.Contains(out, "treiber (BBVL model)") || !strings.Contains(out, "OK") {
		t.Errorf("unexpected check -model output:\n%s", out)
	}

	raw := captureStdout(t, func() error {
		return run([]string{"check", "-json", "-threads", "2", "-ops", "1", "-model", model})
	})
	var res api.Result
	if err := json.Unmarshal([]byte(raw), &res); err != nil {
		t.Fatalf("check -json -model output is not an api.Result: %v\n%s", err, raw)
	}
	if res.Spec.ModelSource == "" || res.Spec.ModelName != model {
		t.Errorf("result spec does not carry the model: %+v", res.Spec)
	}
	if res.Check == nil || !res.Check.Linearizable {
		t.Errorf("treiber model 2x1 must report linearizable: %+v", res.Check)
	}

	// -model plus a positional algorithm is ambiguous.
	if err := run([]string{"check", "-model", model, "treiber"}); err == nil {
		t.Error("-model with positional algorithm must error")
	}
	// A missing model file is a plain file error.
	if err := run([]string{"check", "-model", filepath.Join(t.TempDir(), "nope.bbvl")}); err == nil {
		t.Error("missing model file must error")
	}
	// A model with a type error reports a positioned diagnostic.
	bad := filepath.Join(t.TempDir(), "bad.bbvl")
	if err := os.WriteFile(bad, []byte("model bad\nglobals { G: val }\nspec stack\nmethod Push(v: vals) { P1: goto NOPE }\nmethod Pop() { P2: return empty }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"check", "-model", bad})
	if err == nil || !strings.Contains(err.Error(), bad+":4") {
		t.Errorf("bad model error = %v, want positioned diagnostic", err)
	}
}

// TestRunCompile pins the compile subcommand's machine-level dump.
func TestRunCompile(t *testing.T) {
	model := filepath.Join("..", "..", "examples", "bbvl", "msqueue.bbvl")
	out := captureStdout(t, func() error {
		return run([]string{"compile", model})
	})
	for _, want := range []string{"model ms-queue", "spec queue", "method Enq", "method Deq", "abstract"} {
		if !strings.Contains(out, want) {
			t.Errorf("compile output missing %q:\n%s", want, out)
		}
	}
	if err := run([]string{"compile"}); err == nil {
		t.Error("compile without a file must error")
	}
	if err := run([]string{"compile", "a.bbvl", "b.bbvl"}); err == nil {
		t.Error("compile with two files must error")
	}
}

// TestRunCheckSpecFile runs a JobSpec JSON file through check -spec —
// the offline twin of a bbvd submission.
func TestRunCheckSpecFile(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	src := readFile(t, filepath.Join("..", "..", "examples", "bbvl", "treiber.bbvl"))
	spec := api.JobSpec{
		Kind: api.KindCheck, ModelSource: src, ModelName: "treiber.bbvl",
		Threads: 2, Ops: 1, Workers: 1,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "job.json")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	raw := captureStdout(t, func() error {
		return run([]string{"check", "-spec", path})
	})
	var res api.Result
	if err := json.Unmarshal([]byte(raw), &res); err != nil {
		t.Fatalf("check -spec output is not an api.Result: %v\n%s", err, raw)
	}
	if res.Check == nil || !res.Check.Linearizable {
		t.Errorf("spec-file job must report linearizable: %+v", res.Check)
	}

	// Strict decoding: an unknown field in the job file is an error.
	badPath := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badPath, []byte(`{"kind":"check","algorithem":"treiber"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"check", "-spec", badPath}); err == nil {
		t.Error("unknown field in -spec file must error")
	}
	// -spec is self-contained; combining it with other targets errors.
	if err := run([]string{"check", "-spec", path, "treiber"}); err == nil {
		t.Error("-spec with positional algorithm must error")
	}
}

// TestRunExplain exercises the explain subcommand end to end: a buggy
// object yields a replay-verified distinguishing experiment, a correct
// one reports bisimilarity (the Treiber stack is branching bisimilar to
// its specification at 2x1), and bad flags error.
func TestRunExplain(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	out := captureStdout(t, func() error {
		return run([]string{"explain", "-threads", "2", "-ops", "2", "hm-list-buggy"})
	})
	for _, want := range []string{
		"not branching bisimilar",
		"shortest distinguishing experiment",
		"experiment verified by replay",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	out = captureStdout(t, func() error {
		return run([]string{"explain", "-threads", "2", "-ops", "1", "treiber"})
	})
	if !strings.Contains(out, "bisimilar; there is no distinguishing experiment") {
		t.Errorf("explain on an equivalent pair should report bisimilarity:\n%s", out)
	}
	if err := run([]string{"explain", "-kind", "nope", "treiber"}); err == nil {
		t.Error("unknown -kind must error")
	}
	if err := run([]string{"explain"}); err == nil {
		t.Error("missing algorithm must error")
	}
}

// TestRunRefinerFlag pins that the branching refiner is not a knob:
// -refiner is an unknown flag.
func TestRunRefinerFlag(t *testing.T) {
	err := run([]string{"check", "-refiner", "splitter", "treiber"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -refiner") {
		t.Fatalf("err = %v, want an unknown-flag error", err)
	}
}

// TestRunCheckPrintsExperiment: a failed linearizability check prints
// the quotient distinguishing experiment next to the counterexample
// history.
func TestRunCheckPrintsExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	out := captureStdout(t, func() error {
		return run([]string{"check", "-threads", "2", "-ops", "2", "hm-list-buggy"})
	})
	if !strings.Contains(out, "non-linearizable history:") {
		t.Fatalf("check must print the counterexample:\n%s", out)
	}
	if !strings.Contains(out, "quotient distinguishing experiment:") ||
		!strings.Contains(out, "shortest distinguishing experiment") {
		t.Errorf("check must print the distinguishing experiment:\n%s", out)
	}
}

// TestRunCompareSurfacesExplainOutcome: compare prints the experiment on
// inequivalent quotients. (The error path of bisim.ExplainContext is now
// propagated rather than silently swallowed; if extraction ever failed,
// this run would fail loudly instead of printing a truncated report.)
func TestRunCompareSurfacesExplainOutcome(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	out := captureStdout(t, func() error {
		return run([]string{"compare", "-threads", "2", "-ops", "2", "hm-list-buggy"})
	})
	if !strings.Contains(out, "not branching bisimilar") {
		t.Errorf("compare on a buggy object should explain the inequivalence:\n%s", out)
	}
}

// TestCheckTextMatchesJSON pins that `check` runs one job whatever the
// output format: the verdict lines of the text rendering name exactly
// the checks the -json result lists in checks_run, in that order, with
// the same verdicts.
func TestCheckTextMatchesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	model := filepath.Join("..", "..", "examples", "bbvl", "msqueue.bbvl")
	for _, args := range [][]string{
		{"-threads", "2", "-ops", "1", "-vals", "1", "ms-queue"},
		{"-threads", "2", "-ops", "1", "-vals", "1", "-checks", "linearizability,lockfree,abstract", "ms-queue"},
		{"-threads", "2", "-ops", "2", "hm-list-buggy"},
		{"-threads", "2", "-ops", "1", "lazy-list"},
		{"-threads", "2", "-ops", "1", "-checks", "linearizability,lockfree,abstract", "-model", model},
	} {
		text := captureStdout(t, func() error { return run(append([]string{"check"}, args...)) })
		raw := captureStdout(t, func() error { return run(append([]string{"check", "-json"}, args...)) })
		var res api.Result
		if err := json.Unmarshal([]byte(raw), &res); err != nil {
			t.Fatalf("%v: -json output is not an api.Result: %v", args, err)
		}
		c := res.Check
		want := make([]string, 0, len(c.ChecksRun))
		for _, name := range c.ChecksRun {
			var ok bool
			switch name {
			case api.CheckLinearizability:
				ok = c.Linearizable
			case api.CheckLockFree:
				ok = *c.LockFree
			case api.CheckDeadlock:
				ok = *c.DeadlockFree
			case api.CheckAbstract:
				ok = c.Abstract.LockFree
			}
			want = append(want, name+": "+verdict(ok))
		}
		var got []string
		for _, line := range strings.Split(text, "\n") {
			for prefix, name := range map[string]string{
				"linearizability (Thm 5.3): ":                                   api.CheckLinearizability,
				"lock-freedom (Thm 5.9 (quotient)): ":                           api.CheckLockFree,
				"lock-freedom (Thm 5.8 (abstract)): ":                           api.CheckAbstract,
				"deadlock-free: ":                                               api.CheckDeadlock,
				"lock-freedom: skipped (lock-based algorithm); deadlock-free: ": api.CheckDeadlock,
			} {
				if rest, found := strings.CutPrefix(line, prefix); found {
					got = append(got, name+": "+strings.Fields(rest)[0])
				}
			}
		}
		if strings.Join(got, "; ") != strings.Join(want, "; ") {
			t.Errorf("%v: text verdicts %q, -json verdicts %q\ntext:\n%s", args, got, want, text)
		}
	}
}

// TestSweepOpsOverrideMatchesExplore pins that core derives the state
// layout from the Config it is given: overriding Ops on one config, as
// sweep does, explores exactly the LTS `explore -ops k` exports.
func TestSweepOpsOverrideMatchesExplore(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	model := filepath.Join("..", "..", "examples", "bbvl", "msqueue.bbvl")
	src, err := os.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	job, err := api.Resolve(api.JobSpec{
		Kind: api.KindExplore, ModelSource: string(src), Threads: 2, Ops: 1, Vals: []int32{1},
	}, statecodec.Backend{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for ops := 1; ops <= 3; ops++ {
		a, cfg := job.AlgConfig, job.Config
		a.Ops, cfg.Ops = ops, ops
		l, err := core.ExploreContext(context.Background(), job.Alg.Build(a), cfg)
		if err != nil {
			t.Fatalf("ops=%d: %v", ops, err)
		}
		var swept bytes.Buffer
		if err := lts.WriteAUT(&swept, l); err != nil {
			t.Fatal(err)
		}
		aut := filepath.Join(dir, fmt.Sprintf("ops%d.aut", ops))
		captureStdout(t, func() error {
			return run([]string{"explore", "-threads", "2", "-ops", fmt.Sprint(ops), "-vals", "1", "-aut", aut, "-model", model})
		})
		if readFile(t, aut) != swept.String() {
			t.Errorf("ops=%d: the swept LTS differs from explore -ops %d", ops, ops)
		}
	}
}

// TestKTraceKFlagRemoved pins that the k-trace hierarchy bound is not a
// knob: ktrace renders the api job, whose bound is fixed.
func TestKTraceKFlagRemoved(t *testing.T) {
	err := run([]string{"ktrace", "-k", "5", "treiber"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -k") {
		t.Fatalf("err = %v, want an unknown-flag error", err)
	}
}
