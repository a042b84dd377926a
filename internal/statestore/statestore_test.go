package statestore_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/statecodec"
	"repro/internal/statestore"
)

// open opens a store spilling to the operating system's files under
// dir, through the platform seam.
func open(budget int64, dir string) *statecodec.Store {
	return statecodec.NewStore(statecodec.Config{MemBudget: budget, Dir: dir}, statestore.Runtime().Spill)
}

// key makes a deterministic, variable-length test key.
func key(i int) []byte {
	return []byte(fmt.Sprintf("state-%05d-%s", i, string(rune('a'+i%7))))
}

// TestStoreInternDedup checks in-RAM interning: first contact allocates
// an entry with an unassigned ID, a repeat returns the same handle, and
// once the merge numbers the entry its ID comes back directly.
func TestStoreInternDedup(t *testing.T) {
	s := open(0, t.TempDir())
	defer s.Close()
	r1 := s.Intern(key(1))
	if r1.ID != -1 {
		t.Fatalf("fresh intern: %+v", r1)
	}
	if r2 := s.Intern(key(1)); r2 != r1 {
		t.Fatalf("repeat intern returned %+v, first %+v", r2, r1)
	}
	if r3 := s.Intern(key(2)); r3 == r1 {
		t.Fatal("distinct keys shared an entry")
	}
	if id, fresh, k := s.Number(r1, 7); id != 7 || !fresh || string(k) != string(key(1)) {
		t.Fatalf("first Number: id %d fresh %v key %q", id, fresh, k)
	}
	if id, fresh, _ := s.Number(r1, 8); id != 7 || fresh {
		t.Fatalf("second Number renumbered: id %d fresh %v", id, fresh)
	}
	if r := s.Intern(key(1)); r.ID != 7 {
		t.Fatalf("numbered key interned as %+v, want ID 7", r)
	}
	if st := s.Stats(); st.Interned != 2 || st.Spilled() {
		t.Fatalf("stats: %+v", st)
	}
}

// TestStoreSpillLookup forces table generations to disk with a tiny
// budget and checks every spilled key still resolves — to its final ID,
// without interning anything anew — while unseen keys still allocate
// fresh entries.
func TestStoreSpillLookup(t *testing.T) {
	dir := t.TempDir()
	s := open(1, dir)
	defer s.Close()
	const n = 1000
	for i := 0; i < n; i++ {
		ref := s.Intern(key(i))
		if ref.ID != -1 {
			t.Fatalf("key %d resolved as numbered before any flush", i)
		}
		s.Number(ref, int32(i))
	}
	if err := s.EndLevel(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.TableFlushes == 0 || st.SpillFiles == 0 || !st.Spilled() {
		t.Fatalf("expected a flush under a 1-byte budget, stats: %+v", st)
	}
	for i := 0; i < n; i++ {
		if ref := s.Intern(key(i)); ref.ID != int32(i) {
			t.Fatalf("key %d resolved to %+v", i, ref)
		}
	}
	if got := s.Stats().Interned; got != n {
		t.Fatalf("spilled hits interned anew: %d states interned, want %d", got, n)
	}
	if ref := s.Intern(key(n + 1)); ref.ID != -1 {
		t.Fatalf("unseen key after flush: %+v", ref)
	}
}

// TestStoreMultiGeneration interleaves flushes and fresh interning
// across several levels, mimicking the explorer's merge loop.
func TestStoreMultiGeneration(t *testing.T) {
	s := open(1, t.TempDir())
	defer s.Close()
	next := int32(0)
	for level := 0; level < 5; level++ {
		for i := 0; i < 200; i++ {
			k := key(level*200 + i)
			ref := s.Intern(k)
			if ref.ID != -1 {
				t.Fatalf("level %d: fresh key resolved as numbered", level)
			}
			s.Number(ref, next)
			next++
		}
		// Everything already seen must resolve to its assigned ID, from
		// whichever generation holds it.
		for j := 0; j < (level+1)*200; j += 37 {
			if ref := s.Intern(key(j)); ref.ID != int32(j) {
				t.Fatalf("level %d: key %d resolved to %+v", level, j, ref)
			}
		}
		if err := s.EndLevel(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.TableFlushes < 5 {
		t.Fatalf("expected a flush per level, stats: %+v", st)
	}
}

// TestFrontierHotColdIdentical pushes the same key sequence through an
// unbudgeted (hot) and a 1-byte-budget (cold) frontier and checks chunked
// replay returns byte-identical keys in identical order.
func TestFrontierHotColdIdentical(t *testing.T) {
	run := func(budget int64) [][]byte {
		s := open(budget, t.TempDir())
		defer s.Close()
		const n = 500
		for i := 0; i < n; i++ {
			if err := s.PushFrontier(key(i)); err != nil {
				t.Fatal(err)
			}
		}
		lvl, err := s.NextLevel()
		if err != nil {
			t.Fatal(err)
		}
		if lvl.Len() != n {
			t.Fatalf("level has %d states, want %d", lvl.Len(), n)
		}
		var out [][]byte
		var cr statecodec.ChunkReader
		for start := 0; start < n; start += 64 {
			end := start + 64
			if end > n {
				end = n
			}
			keys, err := lvl.Chunk(start, end, &cr)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				out = append(out, append([]byte(nil), k...))
			}
		}
		if budget > 0 {
			if st := s.Stats(); st.FrontierSpills == 0 {
				t.Fatalf("expected a frontier spill under budget %d, stats: %+v", budget, st)
			}
		}
		return out
	}
	hot := run(0)
	cold := run(1)
	if len(hot) != len(cold) {
		t.Fatalf("hot replay has %d keys, cold %d", len(hot), len(cold))
	}
	for i := range hot {
		if string(hot[i]) != string(cold[i]) {
			t.Fatalf("key %d: hot %q cold %q", i, hot[i], cold[i])
		}
		if string(hot[i]) != string(key(i)) {
			t.Fatalf("key %d replayed out of order: %q", i, hot[i])
		}
	}
}

// TestCloseRemovesSpillDir checks the cleanup contract: after Close, no
// statestore temp files survive — the leak-check every cancellation and
// state-limit path relies on.
func TestCloseRemovesSpillDir(t *testing.T) {
	dir := t.TempDir()
	s := open(1, dir)
	for i := 0; i < 300; i++ {
		s.Number(s.Intern(key(i)), int32(i))
		if err := s.PushFrontier(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.NextLevel(); err != nil {
		t.Fatal(err)
	}
	if err := s.EndLevel(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); !st.Spilled() {
		t.Fatalf("test did not spill, stats: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("leaked %s", filepath.Join(dir, e.Name()))
	}
}
