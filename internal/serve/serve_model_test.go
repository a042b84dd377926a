package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/api"
)

// exampleModel reads one of the shipped BBVL example models.
func exampleModel(t *testing.T, name string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "bbvl", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestModelJobEndToEnd submits the Treiber-stack model as inline source
// and checks the daemon produces the same verdict as the packaged
// registry algorithm it re-encodes.
func TestModelJobEndToEnd(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	src := exampleModel(t, "treiber.bbvl")

	modelView := postJob(t, hs.URL, api.JobSpec{
		Kind: api.KindCheck, ModelSource: src, ModelName: "treiber.bbvl",
		Threads: 2, Ops: 2, Workers: 1,
	}, http.StatusAccepted)
	modelView = pollDone(t, hs.URL, modelView.ID)
	if modelView.Status != StatusDone {
		t.Fatalf("model job %s: %s", modelView.Status, modelView.Error)
	}

	regView := postJob(t, hs.URL, api.JobSpec{
		Kind: api.KindCheck, Algorithm: "treiber",
		Threads: 2, Ops: 2, Workers: 1,
	}, http.StatusAccepted)
	regView = pollDone(t, hs.URL, regView.ID)
	if regView.Status != StatusDone {
		t.Fatalf("registry job %s: %s", regView.Status, regView.Error)
	}

	// The model job must reach the same verdict — in fact the identical
	// CheckResult, since the compiled program explores the same LTS.
	if !reflect.DeepEqual(modelView.Result.Check, regView.Result.Check) {
		t.Errorf("model check = %+v\nregistry check = %+v",
			modelView.Result.Check, regView.Result.Check)
	}
	if !modelView.Result.Check.Linearizable {
		t.Error("treiber model not linearizable")
	}
}

// TestModelJobBadModelDiagnostics checks that a model with a type error
// is rejected at submission with structured positioned diagnostics.
func TestModelJobBadModelDiagnostics(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	spec := api.JobSpec{
		Kind: api.KindCheck,
		ModelSource: `model bad
globals { G: val }
spec stack
method Push(v: vals) { P1: goto NOPE }
method Pop() { P2: return empty }
`,
		ModelName: "bad.bbvl",
	}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var eb struct {
		Error       string           `json:"error"`
		Diagnostics []api.Diagnostic `json:"diagnostics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if len(eb.Diagnostics) == 0 {
		t.Fatalf("no diagnostics in %+v", eb)
	}
	d := eb.Diagnostics[0]
	if d.File != "bad.bbvl" || d.Line != 4 || d.Col == 0 || !strings.Contains(d.Msg, "NOPE") {
		t.Errorf("diagnostic = %+v, want bad.bbvl:4 goto NOPE", d)
	}
}

// TestModelJobMutuallyExclusive checks algorithm + model_source is
// rejected.
func TestModelJobMutuallyExclusive(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	postJob(t, hs.URL, api.JobSpec{
		Kind: api.KindCheck, Algorithm: "treiber", ModelSource: "model x\n",
	}, http.StatusBadRequest)
}

// TestSubmitUnknownFieldRejected checks the strict decoder: a misspelled
// spec field is a 400, not silently ignored.
func TestSubmitUnknownFieldRejected(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"check","algorithm":"treiber","treads":4}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "treads") {
		t.Errorf("error does not name the unknown field: %s", raw)
	}
}

// TestSubmitTrailingDataRejected checks the strict decoder's
// trailing-garbage rule.
func TestSubmitTrailingDataRejected(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"check","algorithm":"treiber"} {"x":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// brokenModel is a well-typed model that dereferences nil at run time.
const brokenModel = `model broken
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

// TestModelRuntimeErrorSurfaces submits a well-typed model that
// dereferences nil at run time at workers 0 (all cores, so the parallel
// explorer runs it): the job must fail with a positioned model runtime
// error rather than killing the worker, the daemon stays healthy, and the
// next job completes.
func TestModelRuntimeErrorSurfaces(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	view := postJob(t, hs.URL, api.JobSpec{
		Kind: api.KindCheck, ModelSource: brokenModel, ModelName: "broken.bbvl",
		Threads: 2, Ops: 2, Workers: 0,
	}, http.StatusAccepted)
	view = pollDone(t, hs.URL, view.ID)
	if view.Status != StatusFailed {
		t.Fatalf("status = %s, want failed", view.Status)
	}
	if !strings.Contains(view.Error, "model runtime error") || !strings.Contains(view.Error, "broken.bbvl:7:11") {
		t.Errorf("error = %q, want positioned model runtime error", view.Error)
	}

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d after a model fault", resp.StatusCode)
	}
	good := postJob(t, hs.URL, api.JobSpec{
		Kind: api.KindCheck, Algorithm: "treiber", Threads: 2, Ops: 1, Workers: 0,
	}, http.StatusAccepted)
	if good = pollDone(t, hs.URL, good.ID); good.Status != StatusDone {
		t.Fatalf("job after the fault: %s: %s", good.Status, good.Error)
	}
}
