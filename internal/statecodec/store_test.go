package statecodec_test

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/statecodec"
	"repro/internal/statestore"
)

// openStore opens a store spilling to the operating system's files
// under a private test directory, which it returns.
func openStore(t testing.TB, budget int64) (*statecodec.Store, string) {
	dir := t.TempDir()
	return statecodec.NewStore(statecodec.Config{MemBudget: budget, Dir: dir}, statestore.Runtime().Spill), dir
}

// requireEmpty fails the test if dir holds anything.
func requireEmpty(t testing.TB, dir, when string) {
	t.Helper()
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("spill directory %s: %d entries, %v", when, len(ents), err)
	}
}

// FuzzStoreIntern runs an operation sequence decoded from the input
// against a Store, once with a zero budget and once with a 1-byte
// budget, so that every level end spills, and checks every returned ID
// and the Interned count against one map oracle. Each op byte b
// selects: b%4 < 2 interns the next (b>>2)%8 input bytes as a key, 2
// numbers the keys interned since the last numbering, 3 numbers them
// and ends the level. Without a budget nothing may spill; after Close
// the spill directory must be empty.
func FuzzStoreIntern(f *testing.F) {
	f.Add([]byte{0x04, 'a', 0x02, 0x04, 'a', 0x03, 0x04, 'a', 0x08, 'a', 'b'})
	f.Add([]byte{0x00, 0x03, 0x00, 0x04, 0x00, 0x03, 0x00, 0x04, 0x01})
	f.Add([]byte{0x1c, 1, 2, 3, 4, 5, 6, 7, 0x03, 0x1c, 1, 2, 3, 4, 5, 6, 7, 0x03, 0x1d, 1, 2, 3, 4, 5, 6, 8})
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, budget := range []int64{0, 1} {
			s, dir := openStore(t, budget)
			ids := make(map[string]int32)
			pending := make(map[string]statecodec.Ref)
			var order []string
			numberPending := func() {
				for _, k := range order {
					next := int32(len(ids))
					id, fresh, key := s.Number(pending[k], next)
					if id != next || !fresh || string(key) != k {
						t.Fatalf("budget %d: Number(%x): id %d fresh %v key %x, want id %d", budget, k, id, fresh, key, next)
					}
					ids[k] = next
					delete(pending, k)
				}
				order = order[:0]
			}
			for ops := in; len(ops) > 0; {
				b := ops[0]
				ops = ops[1:]
				switch b % 4 {
				case 0, 1:
					n := min(int(b>>2)%8, len(ops))
					k := string(ops[:n])
					ops = ops[n:]
					ref := s.Intern([]byte(k))
					if want, ok := ids[k]; ok {
						if ref.ID != want {
							t.Fatalf("budget %d: key %x resolved to %+v, oracle ID %d", budget, k, ref, want)
						}
					} else if want, ok := pending[k]; ok {
						if ref != want {
							t.Fatalf("budget %d: unnumbered key %x resolved to %+v, first %+v", budget, k, ref, want)
						}
					} else {
						if ref.ID != -1 {
							t.Fatalf("budget %d: unseen key %x resolved to %+v", budget, k, ref)
						}
						pending[k] = ref
						order = append(order, k)
					}
				case 2:
					numberPending()
				case 3:
					numberPending()
					if err := s.EndLevel(); err != nil {
						t.Fatal(err)
					}
				}
				if got, want := s.Stats().Interned, int64(len(ids)+len(pending)); got != want {
					t.Fatalf("budget %d: store interned %d keys, oracle knows %d", budget, got, want)
				}
			}
			if st := s.Stats(); budget == 0 && st.Spilled() {
				t.Fatalf("a zero budget spilled: %+v", st)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			requireEmpty(t, dir, "after Close")
		}
	})
}

// TestStoreConcurrentIntern has 8 goroutines intern overlapping key
// sets into one store: every key must resolve to a single handle,
// distinct keys to distinct ones, and numbering the handles must hand
// back each key exactly once. It runs once with nothing spilled, and
// once after a generation has spilled and a second one has been
// numbered, so that the concurrent interns hit cold, hot and fresh keys.
func TestStoreConcurrentIntern(t *testing.T) {
	const workers, span, stride, known = 8, 2000, 500, 1000
	key := func(i int) string { return fmt.Sprintf("key-%d", i) }
	for _, spill := range []bool{false, true} {
		t.Run(fmt.Sprintf("spilled=%t", spill), func(t *testing.T) {
			budget := int64(0)
			if spill {
				budget = 1
			}
			s, _ := openStore(t, budget)
			defer s.Close()
			ids := make(map[string]int32)
			if spill {
				// Keys [0, known) spill in one generation; keys [known,
				// 2*known) stay hot, numbered.
				for gen := 0; gen < 2; gen++ {
					for i := gen * known; i < (gen+1)*known; i++ {
						id := int32(len(ids))
						s.Number(s.Intern([]byte(key(i))), id)
						ids[key(i)] = id
					}
					if gen == 0 {
						if err := s.EndLevel(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if st := s.Stats(); st.TableFlushes != 1 {
					t.Fatalf("expected one flush under a 1-byte budget, stats: %+v", st)
				}
			}
			refs := make([]map[string]statecodec.Ref, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				refs[w] = make(map[string]statecodec.Ref)
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for _, j := range rand.New(rand.NewSource(int64(w))).Perm(span) {
						k := key(w*stride + j)
						refs[w][k] = s.Intern([]byte(k))
					}
				}(w)
			}
			wg.Wait()
			handle := make(map[string]statecodec.Ref)
			for w := range refs {
				for k, r := range refs[w] {
					if id, ok := ids[k]; ok {
						if r.ID != id {
							t.Fatalf("numbered key %s interned as %+v, want ID %d", k, r, id)
						}
						continue
					}
					if r.ID != -1 {
						t.Fatalf("unnumbered key %s interned as %+v", k, r)
					}
					if prev, ok := handle[k]; ok && prev != r {
						t.Fatalf("key %s resolved to %+v and %+v", k, prev, r)
					}
					handle[k] = r
				}
			}
			if want := (workers-1)*stride + span - len(ids); len(handle) != want {
				t.Fatalf("%d fresh keys, want %d", len(handle), want)
			}
			owner := make(map[statecodec.Ref]string)
			next := int32(len(ids))
			for k, r := range handle {
				if other, ok := owner[r]; ok {
					t.Fatalf("keys %s and %s share handle %+v", k, other, r)
				}
				owner[r] = k
				id, fresh, got := s.Number(r, next)
				if id != next || !fresh || string(got) != k {
					t.Fatalf("Number(%+v): id %d fresh %v key %q, want %d true %q", r, id, fresh, got, next, k)
				}
				next++
			}
			if st := s.Stats(); st.Interned != int64(next) {
				t.Fatalf("stats count %d interned, want %d", st.Interned, next)
			}
		})
	}
}

// TestFlushEmptiesHotTables checks what a table flush frees, over 48
// generations: after each EndLevel that spills, no key is resident in
// any shard's hot table, the resident count has fallen by exactly the
// flushed tables' bytes, less the cold indexes that replaced them
// (counted from their real slot slices), and the cold indexes hold
// every spilled entry in at most 20 bytes, plus one empty slot a shard.
func TestFlushEmptiesHotTables(t *testing.T) {
	s, _ := openStore(t, 1)
	defer s.Close()
	const perGen, gens = 1000, 48
	for g := 0; g < gens; g++ {
		for i := g * perGen; i < (g+1)*perGen; i++ {
			s.Number(s.Intern([]byte(fmt.Sprintf("state-%06d", i))), int32(i))
		}
		var hot, coldBefore int64
		for i := 0; i < statecodec.NumShards; i++ {
			_, hb, _, cb := s.ShardSizes(i)
			hot += hb
			coldBefore += cb
		}
		before := s.Resident()
		if hot == 0 || before != hot+coldBefore {
			t.Fatalf("generation %d before the flush: resident %d, hot tables %d and cold indexes %d bytes", g, before, hot, coldBefore)
		}
		if err := s.EndLevel(); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.TableFlushes != g+1 {
			t.Fatalf("expected a flush per level under a 1-byte budget, stats: %+v", st)
		}
		var cold int64
		entries := 0
		for i := 0; i < statecodec.NumShards; i++ {
			hl, _, ce, cb := s.ShardSizes(i)
			if hl != 0 {
				t.Fatalf("shard %d keeps %d keys resident after the flush", i, hl)
			}
			entries += ce
			cold += cb
		}
		if got, want := s.Resident(), before-hot-coldBefore+cold; got != want {
			t.Fatalf("generation %d: resident after the flush %d bytes, want %d", g, got, want)
		}
		if n := (g + 1) * perGen; entries != n || cold > int64(20*n+16*statecodec.NumShards) {
			t.Fatalf("generation %d: cold indexes hold %d entries in %d bytes, %d spilled", g, entries, cold, n)
		}
	}
}
