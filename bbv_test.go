package bbv_test

import (
	"context"
	"strings"
	"testing"

	bbv "repro"
)

func TestFacadeRegistry(t *testing.T) {
	if len(bbv.Algorithms()) < 15 {
		t.Fatalf("registry too small: %d", len(bbv.Algorithms()))
	}
	if _, err := bbv.AlgorithmByID("nope"); err == nil {
		t.Fatal("unknown algorithm must error")
	}
	if len(bbv.Exhibits()) != 10 {
		t.Fatalf("exhibits = %d, want 10", len(bbv.Exhibits()))
	}
	if _, err := bbv.ExhibitByName("nope"); err == nil {
		t.Fatal("unknown exhibit must error")
	}
	e, err := bbv.ExhibitByName("table5")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Run(bbv.ExhibitOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.Render(), "No") {
		t.Fatal("table5 must report the HW violation")
	}
}

func TestFacadeErrorPropagation(t *testing.T) {
	alg, err := bbv.AlgorithmByID("treiber")
	if err != nil {
		t.Fatal(err)
	}
	bad := bbv.Instance{} // zero threads/ops
	cfg := bbv.Instance{Threads: 2, Ops: 2}
	if _, err := bbv.CheckLinearizabilityContext(context.Background(), alg.Build(cfg.Algorithm()), alg.Spec(cfg.Algorithm()), bad); err == nil {
		t.Error("CheckLinearizability must reject a zero instance")
	}
	if _, err := bbv.CheckLockFreeContext(context.Background(), alg.Build(cfg.Algorithm()), bad); err == nil {
		t.Error("CheckLockFree must reject a zero instance")
	}
	if _, err := bbv.CheckDeadlockFreeContext(context.Background(), alg.Build(cfg.Algorithm()), bad); err == nil {
		t.Error("CheckDeadlockFree must reject a zero instance")
	}
	if _, err := bbv.CompareWithSpecContext(context.Background(), alg.Build(cfg.Algorithm()), alg.Spec(cfg.Algorithm()), bad); err == nil {
		t.Error("CompareWithSpec must reject a zero instance")
	}
	tiny := bbv.Instance{Threads: 2, Ops: 2, MaxStates: 3}
	if _, err := bbv.CheckLockFreeAbstractContext(context.Background(), alg.Build(cfg.Algorithm()), alg.Build(cfg.Algorithm()), tiny); err == nil {
		t.Error("CheckLockFreeAbstract must surface the state budget error")
	}
	if _, _, err := bbv.ExplainSpecMismatch(alg.Build(cfg.Algorithm()), alg.Spec(cfg.Algorithm()), tiny); err == nil {
		t.Error("ExplainSpecMismatch must surface the state budget error")
	}
}
