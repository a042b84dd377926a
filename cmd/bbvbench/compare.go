package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// minPairs is the fewest parent/change pairs a comparison may rest on.
const minPairs = 10

// Comparison outcomes of one metric on one workload.
const (
	statusGain       = "gain"
	statusSame       = "no-regression"
	statusRegression = "regression"
	statusUnresolved = "unresolved"
)

var errUsage = errors.New("usage: bbvbench -compare PARENT.json... -- CHANGE.json...")

// boundDef is one end_to_end entry of BENCHMARK.json.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	RunSeconds int        `json:"run_seconds"`
	EndToEnd   []boundDef `json:"end_to_end"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	bench := new(benchmarkFile)
	if err := json.Unmarshal(data, bench); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return bench, nil
}

type comparison struct {
	Pairs      int                  `json:"pairs"`
	GatePassed bool                 `json:"gate_passed"`
	Workloads  []workloadComparison `json:"workloads"`
}

type workloadComparison struct {
	Workload   string             `json:"workload"`
	GatePassed bool               `json:"gate_passed"`
	Metrics    []metricComparison `json:"metrics"`
}

type metricComparison struct {
	Metric string  `json:"metric"`
	Unit   string  `json:"unit"`
	Bound  float64 `json:"bound"`
	Parent summary `json:"parent"`
	Change summary `json:"change"`
	// Worse is the change's median relative to the parent's, signed so
	// that a positive value is a worsening.
	Worse float64 `json:"worse"`
	// Wins counts the pairs in which the change read better.
	Wins   int    `json:"wins"`
	Status string `json:"status"`
}

// compare pairs the i-th parent report with the i-th change report (run
// them alternating, parent or change first in turn) and judges every
// end-to-end metric of every workload:
//
//   - regression: the change's median is worse than the parent's by more
//     than the metric's bound in BENCHMARK.json (fail_ratio: any increase);
//   - unresolved: either side's inter-quartile spread exceeds the bound,
//     unless every change run reads better than every parent run;
//   - gain: at least minPairs pairs, the change wins at least 9 in 10 of
//     them, and the medians differ by more than the parent's
//     inter-quartile range;
//   - no-regression otherwise.
//
// The gate passes when there are at least minPairs pairs and no metric
// regressed or stayed unresolved.
func compare(args []string, benchmarkPath string, w io.Writer) error {
	split := slices.Index(args, "--")
	if split <= 0 || split == len(args)-1 {
		return errUsage
	}
	parent, err := readReports(args[:split])
	if err != nil {
		return err
	}
	change, err := readReports(args[split+1:])
	if err != nil {
		return err
	}
	if len(parent) != len(change) {
		return fmt.Errorf("%d parent reports but %d change reports: each pair needs one of each", len(parent), len(change))
	}
	bench, err := readBenchmark(benchmarkPath)
	if err != nil {
		return err
	}

	cmp := comparison{Pairs: len(parent), GatePassed: len(parent) >= minPairs}
	for _, first := range parent[0].Workloads {
		wc := workloadComparison{Workload: first.Name, GatePassed: true}
		pick := func(reps []*runReport, metric string) ([]float64, error) {
			var xs []float64
			for _, rep := range reps {
				i := slices.IndexFunc(rep.Workloads, func(r *workloadReport) bool { return r.Name == first.Name })
				if i < 0 {
					return nil, fmt.Errorf("a report lacks workload %s", first.Name)
				}
				r := rep.Workloads[i]
				if metric == "fail_ratio" {
					xs = append(xs, r.FailRatio)
				} else {
					xs = append(xs, r.Metrics[metric].Value)
				}
			}
			return xs, nil
		}
		defs := append(slices.Clone(bench.EndToEnd), boundDef{Name: "fail_ratio", Unit: "ratio", Better: "lower"})
		for _, def := range defs {
			a, err := pick(parent, def.Name)
			if err != nil {
				return err
			}
			b, err := pick(change, def.Name)
			if err != nil {
				return err
			}
			mc := judge(def, a, b)
			if mc.Status == statusRegression || mc.Status == statusUnresolved {
				wc.GatePassed = false
			}
			wc.Metrics = append(wc.Metrics, mc)
		}
		cmp.GatePassed = cmp.GatePassed && wc.GatePassed
		cmp.Workloads = append(cmp.Workloads, wc)
	}

	for _, wc := range cmp.Workloads {
		fmt.Fprintf(w, "%-18s gate_passed=%-5t", wc.Workload, wc.GatePassed)
		for _, mc := range wc.Metrics {
			fmt.Fprintf(w, "  %s %s (%+.1f%%, %d/%d)", mc.Metric, mc.Status, 100*mc.Worse, mc.Wins, cmp.Pairs)
		}
		fmt.Fprintln(w)
	}
	if cmp.Pairs < minPairs {
		fmt.Fprintf(w, "only %d pairs: at least %d are needed to pass the gate\n", cmp.Pairs, minPairs)
	}
	fmt.Fprintf(w, "gate_passed=%t\n", cmp.GatePassed)
	return json.NewEncoder(w).Encode(cmp)
}

// judge classifies one metric of one workload from the per-run medians of
// each side, paired by index.
func judge(def boundDef, parent, change []float64) metricComparison {
	sign := 1.0 // +1: lower is better
	if def.Better == "higher" {
		sign = -1
	}
	pa, ch := summarize(def.Unit, parent), summarize(def.Unit, change)
	mc := metricComparison{Metric: def.Name, Unit: def.Unit, Bound: def.Bound, Parent: pa, Change: ch,
		Worse: sign * ratio(ch.Median-pa.Median, pa.Median)}
	worstChange, bestParent := sign*change[0], sign*parent[0]
	for i := range parent {
		if sign*(change[i]-parent[i]) < 0 {
			mc.Wins++
		}
		worstChange = max(worstChange, sign*change[i])
		bestParent = min(bestParent, sign*parent[i])
	}
	if def.Name == "fail_ratio" {
		mc.Status = statusSame
		if ch.Median > pa.Median || slices.Max(change) > slices.Max(parent) {
			mc.Status = statusRegression
		}
		return mc
	}
	spread := max(ratio(pa.Q3-pa.Q1, pa.Median), ratio(ch.Q3-ch.Q1, ch.Median))
	gain := len(parent) >= minPairs && 10*mc.Wins >= 9*len(parent) && sign*(pa.Median-ch.Median) > pa.Q3-pa.Q1
	switch {
	case spread > def.Bound && worstChange >= bestParent:
		mc.Status = statusUnresolved
	case mc.Worse > def.Bound:
		mc.Status = statusRegression
	case gain:
		mc.Status = statusGain
	default:
		mc.Status = statusSame
	}
	return mc
}

func readReports(paths []string) ([]*runReport, error) {
	var reps []*runReport
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		rep := new(runReport)
		if err := json.Unmarshal(data, rep); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if len(rep.Workloads) == 0 {
			return nil, fmt.Errorf("%s: no workloads", p)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}
