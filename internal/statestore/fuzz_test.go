package statestore_test

import (
	"os"
	"testing"

	"repro/internal/statestore"
)

// FuzzStoreIntern runs an operation sequence decoded from the input
// against a Store with a 1-byte budget, so every level end spills, and
// checks every returned ID and the Interned count against a map oracle.
// Each op byte b selects: b%4 < 2 interns the next (b>>2)%8 input bytes
// as a key, 2 numbers the keys interned since the last numbering, 3
// numbers them and ends the level. After Close the spill directory must
// be empty.
func FuzzStoreIntern(f *testing.F) {
	f.Add([]byte{0x04, 'a', 0x02, 0x04, 'a', 0x03, 0x04, 'a', 0x08, 'a', 'b'})
	f.Add([]byte{0x00, 0x03, 0x00, 0x04, 0x00, 0x03, 0x00, 0x04, 0x01})
	f.Add([]byte{0x1c, 1, 2, 3, 4, 5, 6, 7, 0x03, 0x1c, 1, 2, 3, 4, 5, 6, 7, 0x03, 0x1d, 1, 2, 3, 4, 5, 6, 8})
	f.Fuzz(func(t *testing.T, in []byte) {
		dir := t.TempDir()
		s, err := statestore.Open(statestore.Config{MemBudget: 1, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ids := make(map[string]int32)
		pending := make(map[string]statestore.Ref)
		var order []string
		numberPending := func() {
			for _, k := range order {
				next := int32(len(ids))
				id, fresh, key := s.Number(pending[k], next)
				if id != next || !fresh || string(key) != k {
					t.Fatalf("Number(%x): id %d fresh %v key %x, want id %d", k, id, fresh, key, next)
				}
				ids[k] = next
				delete(pending, k)
			}
			order = order[:0]
		}
		for len(in) > 0 {
			b := in[0]
			in = in[1:]
			switch b % 4 {
			case 0, 1:
				n := min(int(b>>2)%8, len(in))
				k := string(in[:n])
				in = in[n:]
				ref := s.Intern([]byte(k))
				if want, ok := ids[k]; ok {
					if ref.ID != want {
						t.Fatalf("key %x resolved to %+v, oracle ID %d", k, ref, want)
					}
				} else if want, ok := pending[k]; ok {
					if ref != want {
						t.Fatalf("unnumbered key %x resolved to %+v, first %+v", k, ref, want)
					}
				} else {
					if ref.ID != -1 {
						t.Fatalf("unseen key %x resolved to %+v", k, ref)
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
				t.Fatalf("store interned %d keys, oracle knows %d", got, want)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Fatalf("spill directory after Close: %d entries, %v", len(ents), err)
		}
	})
}
