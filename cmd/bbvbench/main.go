// Command bbvbench is the repository's benchmark: it measures what
// `bbverify check -spec` costs, end to end and layer by layer, on four
// fixed workloads.
//
//	bbvbench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out F]
//	bbvbench -compare PARENT.json... -- CHANGE.json...
//
// Each workload is a job list one client submits in a closed loop: it
// sends a job, waits for the verdict, then sends the next, through the
// call the CLI and the daemon make (api.RunBackend, then
// api.EncodeResult). Every pass over the list runs in a process of its
// own, one pass after another, a fixed number of passes per workload;
// -seed shuffles the job order of each pass. Every verdict and quotient
// size is checked against testdata/expect.json.
//
// With -trace 1 one extra pass per workload, after the measured ones,
// re-composes each job from the layers' public functions and times every
// layer call; its spans go to .bench_build/bbvbench-trace.json as Chrome
// trace-event JSON and its per-layer sums replace the end-to-end metrics
// in the result line.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. The human-readable table goes to
// standard error; -out writes the full report -compare reads.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupProbes is the number of set-up-only processes spawned before each
// measured pass, so set-up time has a median even on the workloads with
// few passes, taken over the same stretch of the run as the passes.
const setupProbes = 8

// benchmarkPath is the benchmark's definition, read from the repository
// root: run length, metric bounds.
const benchmarkPath = "BENCHMARK.json"

// traceFile is where -trace 1 writes the Chrome trace-event JSON.
const traceFile = ".bench_build/bbvbench-trace.json"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bbvbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bbvbench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: all, in order)")
	seed := fs.Uint64("seed", 1, "seed of the job order of every pass")
	seconds := fs.Int("seconds", 0, "run length per workload; the pass counts are sized to "+benchmarkPath+"'s run_seconds, the only value accepted")
	trace := fs.Int("trace", 0, "1 adds a traced pass per workload, writes "+traceFile+" and reports per-layer metrics")
	out := fs.String("out", "", "write the full report as JSON to this file")
	compareMode := fs.Bool("compare", false, "compare reports: -compare PARENT.json... -- CHANGE.json...")
	child := fs.String("child", "", "internal: run one pass process in this mode")
	pass := fs.Int("pass", 0, "internal: pass index of a -child process")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *child != "":
		return runChild(*child, *name, *seed, *pass)
	case *compareMode:
		return compare(fs.Args(), benchmarkPath, os.Stdout)
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds != 0 {
		bench, err := readBenchmark(benchmarkPath)
		if err != nil {
			return err
		}
		if *seconds != bench.RunSeconds {
			return fmt.Errorf("-seconds %d: the pass counts are sized to %s's run_seconds, %d", *seconds, benchmarkPath, bench.RunSeconds)
		}
	}

	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		selected = []workload{*w}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	exp, err := expectations()
	if err != nil {
		return err
	}
	rep := &runReport{Seed: *seed, Traced: *trace == 1, Host: hostInfo()}
	for i := range selected {
		r, err := measure(exe, &selected[i], *seed, *trace == 1, exp)
		if err != nil {
			return fmt.Errorf("%s: %w", selected[i].name, err)
		}
		rep.Workloads = append(rep.Workloads, r)
		printTable(os.Stderr, r)
	}
	if rep.Traced {
		if err := writeChromeTrace(traceFile, rep.Workloads); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep.result())
}

// runReport is a run's full record: every workload's end-to-end
// summaries and raw samples, and per-layer sums when traced.
type runReport struct {
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Host      host              `json:"host"`
	Workloads []*workloadReport `json:"workloads"`
}

type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
}

func hostInfo() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OS: runtime.GOOS + "/" + runtime.GOARCH}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

type workloadReport struct {
	Name      string `json:"name"`
	Why       string `json:"why"`
	Passes    int    `json:"passes"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// FailRatio is failed ÷ attempted: jobs that errored, ran past the
	// per-job deadline or mismatched the expectation file.
	FailRatio float64              `json:"fail_ratio"`
	Failures  []string             `json:"failures,omitempty"`
	Metrics   map[string]summary   `json:"metrics"`
	Samples   map[string][]float64 `json:"samples"`
	// Layers are the traced pass's per-layer sums (-trace 1 only).
	Layers map[string]float64 `json:"layers,omitempty"`

	traced *passResult
}

// measure runs w.passes untraced passes one after another, each after
// setupProbes set-up probes, then, with traced, one traced pass whose
// set-up is not sampled. Every pass's verdicts are checked against exp.
func measure(exe string, w *workload, seed uint64, traced bool, exp map[string]verdict) (*workloadReport, error) {
	r := &workloadReport{Name: w.name, Why: w.why, Passes: w.passes}
	samples := make(map[string][]float64)
	for i := 0; i < w.passes; i++ {
		for range setupProbes {
			setup, _, err := spawn(exe, modeSetup, w.name, seed, 0)
			if err != nil {
				return nil, err
			}
			samples["setup_s"] = append(samples["setup_s"], setup)
		}
		setup, res := r.runPass(exe, w, seed, modePass, i, exp)
		if res == nil {
			continue
		}
		samples["setup_s"] = append(samples["setup_s"], setup)
		samples["pass_s"] = append(samples["pass_s"], res.PassS)
		samples["cpu_s"] = append(samples["cpu_s"], res.CPUS)
		samples["peak_rss_mib"] = append(samples["peak_rss_mib"], mib(uint64(res.PeakRSSBytes)))
	}
	if traced {
		_, r.traced = r.runPass(exe, w, seed, modeTraced, 0, exp)
	}
	if len(samples["pass_s"]) == 0 {
		return nil, fmt.Errorf("no pass completed: %s", strings.Join(r.Failures, "; "))
	}
	r.FailRatio = ratio(float64(r.Failed), float64(r.Attempted))
	r.Samples = samples
	r.Metrics = make(map[string]summary, len(endToEnd))
	for _, m := range endToEnd {
		r.Metrics[m.name] = summarizePasses(m, samples[m.name])
	}
	if r.traced != nil {
		r.Layers = layerMetrics(r.traced, r.Metrics["pass_s"].Value)
	}
	return r, nil
}

// runPass runs one pass process of w and checks its verdicts, counting
// its jobs as attempted. A pass process that fails counts all its jobs
// as failed and yields a nil result.
func (r *workloadReport) runPass(exe string, w *workload, seed uint64, mode string, index int, exp map[string]verdict) (float64, *passResult) {
	setup, res, err := spawn(exe, mode, w.name, seed, index)
	r.Attempted += len(w.jobs)
	if err != nil {
		r.Failed += len(w.jobs)
		r.Failures = append(r.Failures, fmt.Sprintf("pass %d (%s): %v", index, mode, err))
		return 0, nil
	}
	for _, jr := range res.Jobs {
		err := checkVerdict(exp, jr.ID, jr.Verdict)
		if jr.Error != "" {
			err = fmt.Errorf("job %s: %s", jr.ID, jr.Error)
		}
		if err != nil {
			r.Failed++
			r.Failures = append(r.Failures, fmt.Sprintf("pass %d (%s): %v", index, mode, err))
		}
	}
	return setup, res
}

// spawn runs one pass process and returns its set-up time (spawn → ready
// line, on the harness's clock) and, unless it is a set-up probe, the
// pass it reports.
func spawn(exe, mode, name string, seed uint64, pass int) (float64, *passResult, error) {
	cmd := exec.Command(exe, "-child", mode, "-workload", name,
		"-seed", strconv.FormatUint(seed, 10), "-pass", strconv.Itoa(pass))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	br := bufio.NewReader(stdout)
	ready, readyErr := br.ReadString('\n')
	setup := time.Since(start).Seconds()
	rest, readErr := io.ReadAll(br)
	if err := cmd.Wait(); err != nil {
		return 0, nil, fmt.Errorf("%s process: %w", mode, err)
	}
	if readyErr != nil || ready != readyLine {
		return 0, nil, fmt.Errorf("%s process: no ready line (%q, %v)", mode, ready, readyErr)
	}
	if readErr != nil {
		return 0, nil, fmt.Errorf("%s process: %w", mode, readErr)
	}
	if mode == modeSetup {
		return setup, nil, nil
	}
	res := new(passResult)
	if err := json.Unmarshal(rest, res); err != nil {
		return 0, nil, fmt.Errorf("%s process: bad report: %w", mode, err)
	}
	return setup, res, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the benchmark's machine-read verdict.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result condenses the report: untraced runs give every end-to-end
// metric, traced runs every per-layer metric. With more than one
// workload, names are prefixed with the workload's.
func (rep *runReport) result() resultLine {
	res := resultLine{Metrics: make(map[string]metricValue)}
	for _, r := range rep.Workloads {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		prefix := ""
		if len(rep.Workloads) > 1 {
			prefix = r.Name + "."
		}
		if rep.Traced {
			for _, m := range perLayer {
				res.Metrics[prefix+m.name] = metricValue{r.Layers[m.name], m.unit}
			}
		} else {
			for _, m := range endToEnd {
				res.Metrics[prefix+m.name] = metricValue{r.Metrics[m.name].Value, m.unit}
			}
		}
	}
	res.Correct = res.Failed == 0
	return res
}

func printTable(w io.Writer, r *workloadReport) {
	fmt.Fprintf(w, "%s: %d jobs attempted, %d failed (fail_ratio %.4f)\n", r.Name, r.Attempted, r.Failed, r.FailRatio)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	fmt.Fprintf(w, "  %-30s %-6s %12s %12s %12s %12s %4s\n", "metric", "unit", "value", "median", "q1", "q3", "n")
	for _, m := range endToEnd {
		s := r.Metrics[m.name]
		fmt.Fprintf(w, "  %-30s %-6s %12.4f %12.4f %12.4f %12.4f %4d\n", m.name, m.unit, s.Value, s.Median, s.Q1, s.Q3, s.N)
	}
	if r.Layers == nil {
		return
	}
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-30s %-6s %12.4f\n", m.name, m.unit, r.Layers[m.name])
	}
}
