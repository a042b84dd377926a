package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	bbvlexamples "repro/examples/bbvl"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/playground"
)

// canonicalizeResult zeroes the wall-clock-dependent telemetry of a
// result — elapsed times, throughput, measured RSS — leaving every
// deterministic field (verdicts, sizes, traces, stage structure, the
// echoed spec) intact. Two runs of the same job must agree byte-for-byte
// on the canonical form, whatever backend ran them.
func canonicalizeResult(res *api.Result) {
	res.ElapsedMS = 0
	for i := range res.Stages {
		res.Stages[i].ElapsedUS = 0
		res.Stages[i].StatesPerSec = 0
		res.Stages[i].PeakRSSBytes = 0
	}
}

// TestWasmCheckPathMatchesCLI is the acceptance gate of the layering
// refactor: the wasm playground's check path (internal/playground,
// build-tag-shared with wasm/wasm.go, running on the pure in-memory
// backend) must produce result JSON byte-identical to the native CLI's
// `check -json` (running on the platform backend) for treiber 2-2 —
// modulo wall-clock telemetry, which canonicalizeResult strips from
// both sides. The storage contract promises backends never change
// results; this pins it across the whole pipeline.
func TestWasmCheckPathMatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	model := filepath.Join("..", "..", "examples", "bbvl", "treiber.bbvl")
	cliOut := captureStdout(t, func() error {
		return run([]string{"check", "-json", "-threads", "2", "-ops", "2", "-model", model})
	})

	src, err := bbvlexamples.Source("treiber")
	if err != nil {
		t.Fatal(err)
	}
	pgOut, err := playground.Check(context.Background(), playground.CheckRequest{
		Source:  string(src),
		Name:    model, // the CLI echoes its -model path in the spec
		Threads: 2,
		Ops:     2,
	})
	if err != nil {
		t.Fatal(err)
	}

	canonical := func(raw string) []byte {
		var res api.Result
		if err := json.Unmarshal([]byte(raw), &res); err != nil {
			t.Fatalf("not an api.Result: %v\n%s", err, raw)
		}
		canonicalizeResult(&res)
		var buf bytes.Buffer
		if err := api.EncodeResult(&buf, &res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cli, pg := canonical(cliOut), canonical(pgOut)
	if !bytes.Equal(cli, pg) {
		t.Errorf("playground check JSON diverged from the CLI's:\n--- cli ---\n%s\n--- playground ---\n%s", cli, pg)
	}

	// The run was real: a verdict came back positive.
	var res api.Result
	if err := json.Unmarshal([]byte(pgOut), &res); err != nil {
		t.Fatal(err)
	}
	if res.Check == nil || !res.Check.Linearizable {
		t.Fatalf("treiber 2x2 must verify linearizable: %+v", res.Check)
	}
	if res.Check.LockFree == nil || !*res.Check.LockFree {
		t.Fatalf("treiber 2x2 must verify lock-free: %+v", res.Check)
	}
}

// TestStorageTableOmitsUnknownRSS pins the telemetry-omission contract:
// when no stage measured a peak RSS (non-Linux platforms, js/wasm, the
// pure backend), the storage table must drop the column instead of
// rendering a bogus "0 B"; when any stage measured one, the column is
// back.
func TestStorageTableOmitsUnknownRSS(t *testing.T) {
	base := core.StageStat{
		Stage: "explore", Target: "treiber",
		BytesPerState: 6.5, StatesPerSec: 100000,
	}
	var unknown bytes.Buffer
	printStorageTable(&unknown, []core.StageStat{base})
	if got := unknown.String(); strings.Contains(got, "peak RSS") || strings.Contains(got, "0 B") {
		t.Errorf("unmeasured RSS must be omitted, not printed:\n%s", got)
	}
	if got := unknown.String(); !strings.Contains(got, "treiber") || !strings.Contains(got, "6.50") {
		t.Errorf("storage table lost the explore stage's row:\n%s", got)
	}

	measured := base
	measured.PeakRSSBytes = 64 << 20
	var withRSS bytes.Buffer
	printStorageTable(&withRSS, []core.StageStat{measured})
	if got := withRSS.String(); !strings.Contains(got, "peak RSS") || !strings.Contains(got, "64.0 MiB") {
		t.Errorf("measured RSS must be printed:\n%s", got)
	}
}

// TestExamplesCmd pins the embedded-catalogue subcommand: the listing
// names every model and `examples <name>` prints bytes identical to the
// file under examples/bbvl.
func TestExamplesCmd(t *testing.T) {
	listing := captureStdout(t, func() error { return run([]string{"examples"}) })
	for _, name := range bbvlexamples.Names() {
		if !strings.Contains(listing, name) {
			t.Errorf("examples listing misses %q:\n%s", name, listing)
		}
	}

	got := captureStdout(t, func() error { return run([]string{"examples", "treiber"}) })
	want, err := os.ReadFile(filepath.Join("..", "..", "examples", "bbvl", "treiber.bbvl"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Error("examples treiber output differs from examples/bbvl/treiber.bbvl")
	}

	if err := run([]string{"examples", "no-such-model"}); err == nil {
		t.Error("examples with an unknown name must fail")
	}
}
