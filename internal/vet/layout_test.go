package vet_test

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/lts"
	"repro/internal/machine"
	"repro/internal/statecodec"
	"repro/internal/vet"
)

// algCfg is the instance every layout test runs at.
func algCfg() algorithms.Config { return algorithms.Config{Threads: 2, Ops: 2} }

// slotWithin reports whether inner's range is contained in outer's.
func slotWithin(inner, outer statecodec.Slot) bool {
	return inner.Lo >= outer.Lo && inner.Hi <= outer.Hi
}

// layoutPrograms are the IR-carrying example models the layout tests run
// on, relative to the repository root.
var layoutModels = []string{
	"../../examples/bbvl/treiber.bbvl",
	"../../examples/bbvl/msqueue.bbvl",
	"../../examples/bbvl/spinlock-stack.bbvl",
}

// TestStateLayoutNarrowsSoundly checks, for each example model, that the
// vet-narrowed layout (a) never widens any slot beyond the structural
// bounds, (b) leaves every pointer slot (watermark, Next/A/B) exactly
// structural — the canonicalizer renames heap cells, so pointer ranges
// must not be narrowed — and (c) strictly narrows at least one value
// slot, the point of the analysis.
func TestStateLayoutNarrowsSoundly(t *testing.T) {
	for _, path := range layoutModels {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			m, err := loadModel(path)
			if err != nil {
				t.Fatal(err)
			}
			alg := m.Algorithm()
			p := alg.Build(algCfg())
			opts := vet.Options{Threads: 2, Ops: 2}
			lay := vet.StateLayout(p, opts)
			structural := machine.StructuralLayout(p, 2, 2)

			if lay.Watermark != structural.Watermark {
				t.Errorf("watermark slot narrowed: %+v vs %+v", lay.Watermark, structural.Watermark)
			}
			for _, fi := range []int{statecodec.NodeNext, statecodec.NodeA, statecodec.NodeB} {
				if lay.Node[fi] != structural.Node[fi] {
					t.Errorf("pointer field slot %d narrowed: %+v vs %+v", fi, lay.Node[fi], structural.Node[fi])
				}
			}
			narrower := false
			check := func(what string, got, str statecodec.Slot) {
				if !slotWithin(got, str) {
					t.Errorf("%s widened: %+v outside %+v", what, got, str)
				}
				if got != str {
					narrower = true
				}
			}
			for i := range lay.Globals {
				check("global", lay.Globals[i], structural.Globals[i])
			}
			for i := range lay.Node {
				check("node field", lay.Node[i], structural.Node[i])
			}
			for i := range lay.Thread {
				check("thread register", lay.Thread[i], structural.Thread[i])
			}
			for i := range lay.Locals {
				check("local", lay.Locals[i], structural.Locals[i])
			}
			if !narrower {
				t.Error("interval narrowing changed no slot at all")
			}
		})
	}
}

// TestStateLayoutPreservesLTS explores each example model with the
// structural layout and with the vet-narrowed one and requires
// byte-identical .aut renderings: narrowing shrinks keys, never results.
func TestStateLayoutPreservesLTS(t *testing.T) {
	for _, path := range layoutModels {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			m, err := loadModel(path)
			if err != nil {
				t.Fatal(err)
			}
			alg := m.Algorithm()
			aut := func(lay *statecodec.Layout) []byte {
				l, _, err := machine.ExploreWithInfoContext(context.Background(), alg.Build(algCfg()), machine.Options{
					Threads: 2, Ops: 2, Layout: lay,
				})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := lts.WriteAUT(&buf, l); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			p := alg.Build(algCfg())
			structural := aut(machine.StructuralLayout(p, 2, 2))
			narrowed := aut(vet.StateLayout(p, vet.Options{Threads: 2, Ops: 2}))
			if !bytes.Equal(structural, narrowed) {
				t.Fatal("vet-narrowed layout changed the explored LTS")
			}
		})
	}
}
