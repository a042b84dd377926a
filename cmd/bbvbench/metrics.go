package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of `bbverify check` sees, measured on
// untraced passes. BENCHMARK.json fixes their regression bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},        // spawn of the pass process → ready
	{"pass_s", "s"},         // ready → last verdict
	{"cpu_s", "s"},          // user+sys CPU of the pass
	{"peak_rss_mib", "MiB"}, // VmHWM at the end of the pass
}

// minMeanOverPasses names the end-to-end metrics a run reports as the
// midpoint of the least and the mean of its passes instead of the median.
// A pass's peak RSS varies by up to a fifth with the Go runtime's timing.
// Where the passes split into two clusters (msqueue-2x6-spill) the least
// is the steadiest over four passes, where they spread evenly the mean
// is; the midpoint is steadier than both on every workload (README).
var minMeanOverPasses = map[string]bool{"peak_rss_mib": true}

// perLayer are the traced pass's per-layer sums. Each *_s metric is the
// summed self time of the spans of that name; the rest are counts
// attached to those spans, or ratios of them.
var perLayer = []metricDef{
	{"bbvl.load_s", "s"},
	{"vet.layout_s", "s"},
	{"vet.reduce_s", "s"},
	{"vet.confluent_stmts", "count"},
	{"machine.explore_s", "s"},
	{"machine.states", "count"},
	{"machine.transitions", "count"},
	{"machine.states_per_s", "1/s"},
	{"machine.alloc_mib", "MiB"},
	{"machine.pruned_states", "count"},
	{"machine.pruned_ratio", "ratio"},
	{"statestore.bytes_per_state", "B"},
	{"statestore.peak_resident_mib", "MiB"},
	{"statestore.spill_files", "count"},
	{"statestore.table_flushes", "count"},
	{"statestore.frontier_spills", "count"},
	{"lts.tau_scc_s", "s"},
	{"lts.tau_collapse_s", "s"},
	{"lts.collapse_ratio", "ratio"},
	{"lts.union_s", "s"},
	{"lts.tau_cycle_s", "s"},
	{"bisim.refine_s", "s"},
	{"bisim.refine_rounds", "count"},
	{"bisim.refine_alloc_mib", "MiB"},
	{"bisim.blocks", "count"},
	{"bisim.quotient_s", "s"},
	{"bisim.equiv_s", "s"},
	{"bisim.equiv_states", "count"},
	{"bisim.explain_s", "s"},
	{"refine.trace_incl_s", "s"},
	{"refine.pairs", "count"},
	{"ktrace.analyze_s", "s"},
	{"trace.overhead_ratio", "ratio"},
}

// summary is a metric over a set of samples: the passes of one run, or
// the runs of one side of a comparison.
type summary struct {
	Unit string `json:"unit"`
	// Value is what the samples report: the median, or for a
	// minMeanOverPasses metric over passes, the midpoint of the least
	// and the mean.
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(unit string, xs []float64) summary {
	q := quartiles(xs)
	return summary{Unit: unit, Value: q[1], Median: q[1], Q1: q[0], Q3: q[2], N: len(xs)}
}

// summarizePasses summarizes one end-to-end metric over the passes of a
// run.
func summarizePasses(m metricDef, xs []float64) summary {
	s := summarize(m.unit, xs)
	if minMeanOverPasses[m.name] && len(xs) > 0 {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		s.Value = (slices.Min(xs) + sum/float64(len(xs))) / 2
	}
	return s
}

// quartiles returns the three cut points of xs, interpolated as Python's
// statistics.quantiles(xs, n=4) does by default (the "exclusive"
// method), so the harness and an outside check read the same spread.
// The middle cut point is the median.
func quartiles(xs []float64) [3]float64 {
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// selfTimes gives each span's duration minus the part its children
// cover, in microseconds. Children of one span never overlap: a pass is
// one goroutine.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// layerMetrics sums a traced pass per layer. overhead compares the
// traced pass with the median untraced one.
func layerMetrics(res *passResult, untracedPassS float64) map[string]float64 {
	sum := make(map[string]float64)
	self := selfTimes(res.Spans)
	for i, s := range res.Spans {
		sum[s.Name+"_s"] += self[i] / 1e6
		for k, v := range s.Args {
			if strings.Contains(k, "peak") {
				sum[k] = max(sum[k], v)
			} else {
				sum[k] += v
			}
		}
	}
	sum["machine.states_per_s"] = ratio(sum["machine.states"], sum["machine.explore_s"])
	sum["machine.pruned_ratio"] = ratio(sum["machine.pruned_states"], sum["machine.states"]+sum["machine.pruned_states"])
	sum["statestore.bytes_per_state"] = ratio(sum["statestore.encoded_bytes"], sum["machine.states"])
	sum["lts.collapse_ratio"] = ratio(sum["lts.collapsed_states"], sum["lts.probed_states"])
	sum["trace.overhead_ratio"] = ratio(res.PassS, untracedPassS) - 1
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = sum[m.name]
	}
	return out
}

// traceEvent is one Chrome trace-event ("X" complete event, or "M"
// metadata naming a process).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes every traced pass as Chrome trace-event JSON,
// one process per workload. Each event carries its span id, parent span,
// job id and self time in args, next to the span's counts.
func writeChromeTrace(path string, reports []*workloadReport) error {
	var events []traceEvent
	for i, r := range reports {
		if r.traced == nil {
			continue
		}
		pid := i + 1
		events = append(events, traceEvent{Name: "process_name", Ph: "M", PID: pid, TID: 1,
			Args: map[string]any{"name": r.Name}})
		self := selfTimes(r.traced.Spans)
		for j, s := range r.traced.Spans {
			args := map[string]any{"id": s.ID, "parent": s.Parent, "job": s.Job, "self_us": self[j]}
			for k, v := range s.Args {
				args[k] = v
			}
			events = append(events, traceEvent{Name: s.Name, Cat: strings.SplitN(s.Name, ".", 2)[0], Ph: "X",
				TS: s.Start, Dur: s.End - s.Start, PID: pid, TID: 1, Args: args})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
