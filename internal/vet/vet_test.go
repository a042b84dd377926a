// Tests live in package vet_test so they can compile BBVL fixtures
// through internal/bbvl (which itself imports vet for Model.Vet)
// without an import cycle.
package vet_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/bbvl"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/vet"
)

// posOf locates the first occurrence of anchor in src and returns its
// 1-based line and column, so fixture assertions pin exact positions
// without hard-coding line numbers.
func posOf(t *testing.T, src, anchor string) (int, int) {
	t.Helper()
	off := strings.Index(src, anchor)
	if off < 0 {
		t.Fatalf("anchor %q not found in fixture", anchor)
	}
	line, col := 1, 1
	for _, r := range src[:off] {
		if r == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}

func loadFixture(t *testing.T, name string) (*bbvl.Model, string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := bbvl.Load(path, src)
	if err != nil {
		t.Fatalf("fixture %s does not check: %v", name, err)
	}
	return m, string(src)
}

// wantFinding is one expected diagnostic: the anchor substring pins the
// exact source position the finding must carry.
type wantFinding struct {
	analyzer string
	severity vet.Severity
	anchor   string
	method   string
	msgSub   string
}

func TestFixtures(t *testing.T) {
	cases := []struct {
		file string
		want []wantFinding
	}{
		{"unreachable.bbvl", []wantFinding{
			{"unreachable", vet.Warning, "P2: goto P2", "Push", "statement P2 is unreachable"},
		}},
		{"deadguard.bbvl", []wantFinding{
			{"deadguard", vet.Warning, "if G == 99", "Push", "always false"},
		}},
		{"unusedvar.bbvl", []wantFinding{
			{"unusedvar", vet.Warning, "node ghost", "", "node kind ghost is never allocated"},
			{"unusedvar", vet.Warning, "W: val", "", "global W is write-only"},
			{"unusedvar", vet.Warning, "H: val", "", "global H is never used"},
		}},
		{"overflow.bbvl", []wantFinding{
			{"overflow", vet.Warning, "G = 400", "Push", "can be 400"},
		}},
		{"taucycle.bbvl", []wantFinding{
			{"taucycle", vet.Warning, "Q1: if Flag", "Pop", "loop through {Q1} forever"},
		}},
		{"noreturn.bbvl", []wantFinding{
			{"specshape", vet.Error, "method Pop", "Pop", "no reachable return"},
			{"taucycle", vet.Warning, "Q1: if G", "Pop", "loop through {Q1} forever"},
		}},
		{"absmismatch.bbvl", []wantFinding{
			{"specshape", vet.Warning, "abstract {", "Pop", "abstract block declares no method Pop"},
		}},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			m, src := loadFixture(t, c.file)
			got := m.Vet(algorithms.Config{})
			if len(got) != len(c.want) {
				t.Fatalf("got %d findings, want %d:\n%s", len(got), len(c.want), renderFindings(got))
			}
			for i, w := range c.want {
				f := got[i]
				if f.Analyzer != w.analyzer {
					t.Errorf("finding %d: analyzer = %s, want %s", i, f.Analyzer, w.analyzer)
				}
				if f.Severity != w.severity {
					t.Errorf("finding %d: severity = %s, want %s", i, f.Severity, w.severity)
				}
				if f.Method != w.method {
					t.Errorf("finding %d: method = %q, want %q", i, f.Method, w.method)
				}
				if !strings.Contains(f.Msg, w.msgSub) {
					t.Errorf("finding %d: msg %q does not contain %q", i, f.Msg, w.msgSub)
				}
				line, col := posOf(t, src, w.anchor)
				if f.Pos.Line != line || f.Pos.Col != col {
					t.Errorf("finding %d: pos = %d:%d, want %d:%d (anchor %q)", i, f.Pos.Line, f.Pos.Col, line, col, w.anchor)
				}
				if f.Pos.File != filepath.Join("testdata", c.file) {
					t.Errorf("finding %d: file = %q", i, f.Pos.File)
				}
			}
		})
	}
}

func renderFindings(fs []vet.Finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}

// TestWerror pins the error/warning split -Werror relies on.
func TestWerror(t *testing.T) {
	m, _ := loadFixture(t, "noreturn.bbvl")
	if !vet.HasErrors(m.Vet(algorithms.Config{})) {
		t.Error("noreturn.bbvl should produce an error-severity finding")
	}
	m, _ = loadFixture(t, "taucycle.bbvl")
	fs := m.Vet(algorithms.Config{})
	if len(fs) == 0 || vet.HasErrors(fs) {
		t.Errorf("taucycle.bbvl should produce warnings only, got:\n%s", renderFindings(fs))
	}
}

// TestExamplesClean holds every shipped example model to zero findings:
// the analyzers must not produce false positives on known-good models.
func TestExamplesClean(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "bbvl", "*.bbvl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example models found")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			m, err := loadModel(path)
			if err != nil {
				t.Fatal(err)
			}
			if fs := m.Vet(algorithms.Config{Threads: 2, Ops: 2}); len(fs) != 0 {
				t.Errorf("expected zero findings, got:\n%s", renderFindings(fs))
			}
		})
	}
}

// TestRegistryClean holds every known-good registry algorithm to zero
// findings. Rows still written as Go closures carry no IR, so only the
// τ-cycle probe applies to them — and an algorithm the paper verdicts
// lock-free must not have a solo τ-cycle. Rows compiled from BBVL get
// every analyzer.
func TestRegistryClean(t *testing.T) {
	cfg := algorithms.Config{Threads: 2, Ops: 2}
	for _, a := range algorithms.All() {
		if !a.ExpectLinearizable || !(a.LockBased || a.ExpectLockFree) {
			continue
		}
		t.Run(a.ID, func(t *testing.T) {
			fs := vet.Check(a.Build(cfg), vet.Options{LockBased: a.LockBased})
			if len(fs) != 0 {
				t.Errorf("expected zero findings, got:\n%s", renderFindings(fs))
			}
		})
	}
}

// TestTauCycleCrossReference pins the analyzer to the exploration-time
// verdict: treiber-hp-fu (hazard-pointer Treiber with a spinning
// scan) is flagged by the structural τ-cycle probe, and the full ≈div
// lock-freedom check agrees that the object is not lock-free.
func TestTauCycleCrossReference(t *testing.T) {
	a, err := algorithms.ByID("treiber-hp-fu")
	if err != nil {
		t.Fatal(err)
	}
	if a.ExpectLockFree {
		t.Fatal("treiber-hp-fu is expected to be non-lock-free")
	}
	cfg := algorithms.Config{Threads: 2, Ops: 2}
	prog := a.Build(cfg)

	fs := vet.Check(prog, vet.Options{})
	var hit *vet.Finding
	for i := range fs {
		if fs[i].Analyzer == "taucycle" {
			hit = &fs[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("vet found no taucycle on treiber-hp-fu:\n%s", renderFindings(fs))
	}
	if hit.Method != "Pop" {
		t.Errorf("taucycle method = %s, want Pop (the hazard-pointer validation spin)", hit.Method)
	}

	s := core.NewSession(core.Config{Threads: 2, Ops: 2})
	res, err := s.CheckLockFreeAutoContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.LockFree {
		t.Error("CheckLockFreeAuto reports lock-free; the vet taucycle finding should agree with a non-lock-free verdict")
	}
}

// TestCatalog pins the analyzer IDs: they appear in findings, metrics
// labels and the daemon's /v1/analyzers endpoint.
func TestCatalog(t *testing.T) {
	cat := vet.Catalog()
	var ids []string
	for _, a := range cat {
		ids = append(ids, a.ID)
	}
	want := []string{"deadguard", "overflow", "specshape", "taucycle", "unreachable", "unusedvar"}
	if strings.Join(ids, ",") != strings.Join(want, ",") {
		t.Fatalf("catalog IDs = %v, want %v", ids, want)
	}
	for _, a := range cat {
		wantSev := vet.Warning
		if a.ID == "specshape" {
			wantSev = vet.Error
		}
		if a.Severity != wantSev {
			t.Errorf("analyzer %s severity = %s, want %s", a.ID, a.Severity, wantSev)
		}
		if a.Description == "" {
			t.Errorf("analyzer %s has no description", a.ID)
		}
	}
}

// TestFindingString pins the rendering the CLI prints.
func TestFindingString(t *testing.T) {
	f := vet.Finding{
		Analyzer: "deadguard",
		Severity: vet.Warning,
		Program:  "m",
		Method:   "Push",
		Label:    "P1",
		Pos:      machine.Pos{File: "m.bbvl", Line: 3, Col: 7},
		Msg:      "branch condition is always false",
	}
	if got, want := f.String(), "m.bbvl:3:7: warning: branch condition is always false [deadguard]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	f.Pos = machine.Pos{}
	if got, want := f.String(), "m/Push/P1: warning: branch condition is always false [deadguard]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
