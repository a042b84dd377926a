package bbvl

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse feeds arbitrary bytes through the whole front end (lexer,
// parser, typechecker). The property under test: Load never panics and
// never loops — it either produces a Model or a positioned ErrorList.
// Run long with: go test -fuzz=FuzzParse ./internal/bbvl
func FuzzParse(f *testing.F) {
	for _, name := range []string{"treiber.bbvl", "msqueue.bbvl", "spinlock-stack.bbvl", "lazy-list.bbvl", "fine-grained-list.bbvl", "two-lock-queue.bbvl"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", "bbvl", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Add([]byte("model m\nspec stack\n"))
	f.Add([]byte("model m\nnode c { a: val }\nglobals { G: ptr }\nmethod F() { P1: goto P1 }\n"))
	f.Add([]byte("model m\nmethod F(x: {1,2}) { P1: if cas(G, 0, self) { return ok }; goto P1 }\n"))
	f.Add([]byte("# only a comment"))
	f.Add([]byte("model"))
	f.Add([]byte("model m\ninit { G = alloc(c) }\nabstract { method F() { A1: return ok } }\n"))
	f.Add([]byte("model m\ninit { var t: ptr\n t = alloc(c); t.k = -1 }\nmethod F(x: vals) { P1: lock(G); if x < -2 { unlock(G); goto P1 }; return ok }\n"))
	f.Fuzz(func(t *testing.T, src []byte) {
		m, err := Load("fuzz.bbvl", src)
		if err == nil && m == nil {
			t.Fatal("Load returned neither model nor error")
		}
	})
}

// FuzzVet runs the full static-analysis pass over every model the
// front end accepts. The property under test: Vet never panics and
// never loops, whatever the model shape — the interval fixpoint
// converges (or widens) and the τ-cycle pilot stays within its state
// guards. Run long with: go test -fuzz=FuzzVet ./internal/bbvl
func FuzzVet(f *testing.F) {
	for _, name := range []string{"treiber.bbvl", "msqueue.bbvl", "spinlock-stack.bbvl", "lazy-list.bbvl", "fine-grained-list.bbvl", "two-lock-queue.bbvl"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", "bbvl", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	fixtures, err := filepath.Glob(filepath.Join("..", "vet", "testdata", "*.bbvl"))
	if err != nil {
		f.Fatal(err)
	}
	for _, fx := range fixtures {
		src, err := os.ReadFile(fx)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Add([]byte("model m\nglobals { G: val }\nspec stack\nmethod Push(v: vals) { P1: goto P1 }\nmethod Pop() { P2: return empty }\n"))
	f.Add([]byte("model m\nnode c { v: val  n: ptr }\nglobals { L: val  T: ptr }\nspec stack\nlockbased\ninit { var t: ptr\n T = alloc(c); t = alloc(c); T.n = t }\nmethod Push(v: vals) { var p: ptr\n P1: lock(L); goto P2\n P2: p = T; lock(p); goto P3\n P3: if p.v < v { unlock(p); unlock(L); return ok }; unlock(p); goto P4\n P4: unlock(L); return ok }\nmethod Pop() { P5: lock(L); goto P6\n P6: unlock(L); return empty }\n"))
	f.Fuzz(func(t *testing.T, src []byte) {
		m, err := Load("fuzz.bbvl", src)
		if err != nil {
			return
		}
		// Small pilot instance: the pass must terminate quickly on any
		// accepted model, not just sensible ones.
		m.Vet(Config{Threads: 2, Ops: 1})
	})
}
