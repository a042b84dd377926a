package bbvl

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/machine"
)

// TestFormatRoundTrip holds every example model to the canonical-source
// round trip: Format output must reparse, recheck and recompile to
// programs with identical machine fingerprints (globals, heap, locals,
// methods, statement IR — everything but source positions), for both
// the implementation and the abstract program, at more than one
// instance size. Formatting the reparsed model must also reproduce the
// formatted text exactly (idempotence).
func TestFormatRoundTrip(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "bbvl", "*.bbvl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example models found")
	}
	cfgs := []Config{
		{Threads: 1, Ops: 1},
		{Threads: 2, Ops: 2},
		{Threads: 2, Ops: 2, Vals: []int32{3, 4, 5}},
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			orig, err := Load(path, src)
			if err != nil {
				t.Fatal(err)
			}
			text := orig.Format()
			back, err := Load(path+".formatted", []byte(text))
			if err != nil {
				t.Fatalf("formatted output does not check:\n%s\nerror: %v", text, err)
			}
			if again := back.Format(); again != text {
				t.Errorf("Format is not idempotent:\n--- first\n%s\n--- second\n%s", text, again)
			}
			if orig.HasAbstract != back.HasAbstract {
				t.Fatalf("HasAbstract changed: %v -> %v", orig.HasAbstract, back.HasAbstract)
			}
			for _, cfg := range cfgs {
				if a, b := machine.Fingerprint(orig.Build(cfg)), machine.Fingerprint(back.Build(cfg)); a != b {
					t.Errorf("cfg %+v: implementation fingerprint changed after round trip", cfg)
				}
				if orig.HasAbstract {
					if a, b := machine.Fingerprint(orig.AbstractProgram(cfg)), machine.Fingerprint(back.AbstractProgram(cfg)); a != b {
						t.Errorf("cfg %+v: abstract fingerprint changed after round trip", cfg)
					}
				}
			}
		})
	}
}

// TestFormatMentionsDeclarations spot-checks the canonical rendering on
// one known model.
func TestFormatMentionsDeclarations(t *testing.T) {
	m, err := LoadFile(filepath.Join("..", "..", "examples", "bbvl", "treiber.bbvl"))
	if err != nil {
		t.Fatal(err)
	}
	text := m.Format()
	for _, want := range []string{
		"model treiber\n",
		"node cell {\n",
		"heap totalops + 1",
		"spec stack",
		"method Push(v: vals) {",
		"P3: if cas(Top, t, n) { return ok } else { goto P2 }",
	} {
		if !contains(text, want) {
			t.Errorf("formatted output missing %q:\n%s", want, text)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
