package archtest

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCoreLayerIsOSFree is the boundary: no core-layer package (nor any
// repro package it reaches) may import os, net, syscall or the platform
// packages. If this fails, either move the offending code behind the
// statecodec.Backend seam (the spill filesystem, telemetry) or into the platform
// layer — do not widen the allowlist.
func TestCoreLayerIsOSFree(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	violations, err := Check(root, CorePackages)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Errorf("core boundary violated: %s", v)
	}
}

// TestCheckFlagsViolations proves the checker has teeth: a fixture
// package importing os (directly, via a subtree, and via the platform
// statestore) must be flagged. Without this negative test a silently
// broken parser would make the boundary test above pass vacuously.
func TestCheckFlagsViolations(t *testing.T) {
	violations, err := Check("testdata", []string{"badcore"})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"os":                        false,
		"os/exec":                   false,
		"net/http":                  false,
		"repro/internal/statestore": false,
	}
	for _, v := range violations {
		if !strings.HasPrefix(v.File, "badcore/") {
			t.Errorf("violation outside the fixture: %s", v)
		}
		if _, ok := want[v.Import]; !ok {
			t.Errorf("unexpected violation: %s", v)
			continue
		}
		want[v.Import] = true
	}
	for imp, seen := range want {
		if !seen {
			t.Errorf("checker missed forbidden import %q", imp)
		}
	}
	// Test files must stay exempt: fixtures and golden files need os.
	for _, v := range violations {
		if strings.HasSuffix(v.File, "_test.go") {
			t.Errorf("checker flagged a test file: %s", v)
		}
	}
}

// TestForbiddenClassifier pins edge cases of the path classifier.
func TestForbiddenClassifier(t *testing.T) {
	for _, ok := range []string{"fmt", "io", "oslib", "network", "context", "repro/internal/statecodec"} {
		if why, bad := forbidden(ok); bad {
			t.Errorf("%q wrongly forbidden (%s)", ok, why)
		}
	}
	for _, bad := range []string{"os", "os/exec", "syscall", "syscall/js", "net", "net/http", "repro/internal/statestore"} {
		if _, flagged := forbidden(bad); !flagged {
			t.Errorf("%q not forbidden", bad)
		}
	}
}
