package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mainArgsEnv, when set in the environment, makes the test binary run
// main with these space-separated arguments instead of the tests, so a
// test can observe the real command's exit status and stderr.
const mainArgsEnv = "BBVERIFY_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(mainArgsEnv); args != "" {
		os.Args = append([]string{"bbverify"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCheckModelFaultExitsCleanly runs `bbverify check -model` on a model
// that dereferences nil at run time, at one worker and at two: the
// command exits 1 with the source position on stderr and no goroutine
// dump.
func TestCheckModelFaultExitsCleanly(t *testing.T) {
	model := filepath.Join(t.TempDir(), "broken.bbvl")
	src := `model broken
node cell { val: val  next: ptr }
globals { Top: ptr }
spec stack
method Push(v: vals) {
  var t: ptr
  P1: t = Top.next; goto P2
  P2: if cas(Top, t, nil) { return ok } else { goto P1 }
}
method Pop() { P9: return empty }
`
	if err := os.WriteFile(model, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "2"} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), mainArgsEnv+"=check -workers "+workers+" -model "+model)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("workers=%s: exit = %v, want status 1; stderr:\n%s", workers, err, stderr.String())
		}
		out := stderr.String()
		if !strings.Contains(out, "model runtime error") || !strings.Contains(out, "broken.bbvl:7:11") {
			t.Errorf("workers=%s: stderr lacks the positioned model runtime error:\n%s", workers, out)
		}
		if strings.Contains(out, "goroutine ") {
			t.Errorf("workers=%s: stderr carries a goroutine dump:\n%s", workers, out)
		}
	}
}

// TestEncodingFlagRemoved pins that the state codec is not a knob.
func TestEncodingFlagRemoved(t *testing.T) {
	err := run([]string{"check", "-encoding", "legacy", "treiber"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -encoding") {
		t.Fatalf("err = %v, want an unknown-flag error", err)
	}
}

// TestCheckOversizedInstanceExits1: an instance past api.MaxTotalOps is
// rejected before anything is sized by it, so the command exits 1 with
// the limit on stderr instead of running out of memory.
func TestCheckOversizedInstanceExits1(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), mainArgsEnv+"=check -threads 100000000 -ops 1 -max-states 10 treiber")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit = %v, want status 1; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "threads x ops must be at most 64") {
		t.Errorf("stderr lacks the instance limit:\n%s", stderr.String())
	}
}
