package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/statecodec"
	"repro/internal/statestore"
)

// jobDeadline bounds each job; a job that runs past it counts as failed.
const jobDeadline = 120 * time.Second

// Child process modes. Every pass runs in a process of its own, so each
// pays the cold start a CLI user pays and its CPU and peak RSS are its
// own.
const (
	modeSetup  = "setup"  // set up, report ready, exit: a set-up time probe
	modePass   = "pass"   // one untraced pass through api.RunBackend
	modeTraced = "traced" // one pass re-composed from the layers, with spans
)

// readyLine is what a child prints once set-up is done.
const readyLine = "ready\n"

// passResult is what a pass process reports to the harness.
type passResult struct {
	// PassS is the wall clock from ready to the last verdict; for a
	// traced pass, the summed job spans (the probes excluded).
	PassS float64 `json:"pass_s"`
	// CPUS is the process's user+sys CPU over the same interval.
	CPUS float64 `json:"cpu_s"`
	// PeakRSSBytes is the process's VmHWM at the end of the pass.
	PeakRSSBytes int64       `json:"peak_rss_bytes"`
	Jobs         []jobResult `json:"jobs"`
	Spans        []span      `json:"spans,omitempty"`
}

type jobResult struct {
	ID      string  `json:"id"`
	Error   string  `json:"error,omitempty"`
	Verdict verdict `json:"verdict"`
}

// runChild is the body of a pass process: set up, print readyLine, then
// (unless it is a set-up probe) run the workload's jobs in the pass's
// order and print one passResult line.
func runChild(mode, name string, seed uint64, pass int) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	jobs, err := loadJobs(w)
	if err != nil {
		return err
	}
	backend := statestore.Runtime()
	if _, err := os.Stdout.WriteString(readyLine); err != nil {
		return err
	}
	var res *passResult
	switch mode {
	case modeSetup:
		return nil
	case modePass:
		res = runPass(jobs, passOrder(len(jobs), seed, pass), backend)
	case modeTraced:
		res = runTracedPass(jobs, passOrder(len(jobs), seed, pass), backend)
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// runPass submits the jobs in order, each through the call the CLI's
// `check -spec` and the daemon make, and waits for each verdict before
// sending the next.
func runPass(jobs []job, order []int, backend statecodec.Backend) *passResult {
	res := &passResult{}
	cpu0 := cpuSeconds()
	start := time.Now()
	for _, i := range order {
		j := jobs[i]
		jr := jobResult{ID: j.id}
		v, err := submit(j.spec, backend)
		if err != nil {
			jr.Error = err.Error()
		}
		jr.Verdict = v
		res.Jobs = append(res.Jobs, jr)
	}
	res.PassS = time.Since(start).Seconds()
	res.CPUS = cpuSeconds() - cpu0
	res.PeakRSSBytes = statestore.ProcessPeakRSS()
	return res
}

// submit runs one job under the per-job deadline and reads its verdict
// back from the canonical wire form, as a client would.
func submit(spec api.JobSpec, backend statecodec.Backend) (verdict, error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobDeadline)
	defer cancel()
	res, err := api.RunBackend(ctx, spec, backend, nil)
	if err != nil {
		return verdict{}, err
	}
	var buf bytes.Buffer
	if err := api.EncodeResult(&buf, res); err != nil {
		return verdict{}, err
	}
	var wire api.Result
	if err := json.Unmarshal(buf.Bytes(), &wire); err != nil {
		return verdict{}, fmt.Errorf("decode result: %w", err)
	}
	return verdictOf(&wire), nil
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid buffer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
