package bbv_test

import (
	"testing"

	bbv "repro"
)

// TestCrossRefinerExplainDeterministicAcrossWorkers pins satellite
// determinism: the rendered distinguishing experiment for the same
// inequivalent pair is byte-identical whether the state spaces were
// explored with one worker or with 8.
func TestCrossRefinerExplainDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration-heavy")
	}
	alg, err := bbv.AlgorithmByID("hm-list-buggy")
	if err != nil {
		t.Fatal(err)
	}
	formats := make([]string, 0, 2)
	for _, workers := range []int{1, 8} {
		in := bbv.Instance{Threads: 2, Ops: 2, Workers: workers}
		exp, bad, err := bbv.ExplainSpecMismatch(alg.Build(in.Algorithm()), alg.Spec(in.Algorithm()), in)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bad {
			t.Fatalf("workers=%d: hm-list-buggy must mismatch its spec", workers)
		}
		formats = append(formats, exp.Format())
	}
	if formats[0] != formats[1] {
		t.Errorf("experiment differs across worker counts:\n-- workers=1 --\n%s-- workers=8 --\n%s", formats[0], formats[1])
	}
}
