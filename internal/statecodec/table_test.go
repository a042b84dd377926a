package statecodec

import (
	"fmt"
	"math/rand"
	"testing"
)

// tagCollisions brute-forces pairs of distinct keys whose Hash64 share
// the high 32 bits, the Table tag: a birthday search over 2^18 keys
// yields about eight.
func tagCollisions(t *testing.T) [][]byte {
	const n, width = 1 << 18, 12
	buf := make([]byte, n*width)
	rand.New(rand.NewSource(2)).Read(buf)
	key := func(i int32) []byte { return buf[i*width : (i+1)*width] }
	seen := make(map[uint32]int32)
	var out [][]byte
	for i := int32(0); i < n; i++ {
		tag := uint32(Hash64(key(i)) >> 32)
		if prev, ok := seen[tag]; ok {
			out = append(out, key(prev), key(i))
		}
		seen[tag] = i
	}
	if len(out) == 0 {
		t.Fatal("brute force found no 32-bit tag collision")
	}
	t.Logf("%d colliding pairs", len(out)/2)
	return out
}

// TestTableMatchesMapOracle interns key sequences into a Table and into
// a map[string]int32 oracle side by side: every intern must agree on
// freshness and entry index, Key must round-trip, and absent keys must
// stay absent.
func TestTableMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([][]byte, 3000)
	for i := range random {
		k := make([]byte, rng.Intn(24))
		rng.Read(k)
		random[i] = k
	}
	lastByte := [][]byte{{}}
	for i := 0; i < 256; i++ {
		lastByte = append(lastByte, []byte{7, 7, 7, byte(i)}, []byte{byte(i)})
	}
	growth := make([][]byte, 20000)
	for i := range growth {
		growth[i] = []byte(fmt.Sprintf("state-%d", i))
	}
	cases := []struct {
		name        string
		keys        [][]byte
		minResizes  int
		repeatRatio int // every key is interned this many times, interleaved
	}{
		{"random", random, 0, 2},
		{"empty and last-byte", lastByte, 0, 3},
		{"tag collisions", tagCollisions(t), 0, 2},
		{"growth", growth, 10, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var tab Table
			oracle := make(map[string]int32)
			resizes, index := 0, 0
			for r := 0; r < tc.repeatRatio; r++ {
				for _, k := range tc.keys {
					want, seen := oracle[string(k)]
					i, fresh := tab.Intern(Hash64(k), k)
					if fresh == seen {
						t.Fatalf("key %x: fresh %v, oracle seen %v", k, fresh, seen)
					}
					if !seen {
						want = int32(len(oracle))
						oracle[string(k)] = want
					}
					if i != want {
						t.Fatalf("key %x: entry %d, oracle %d", k, i, want)
					}
					if len(tab.index) != index {
						resizes++
						index = len(tab.index)
					}
				}
			}
			if tab.Len() != len(oracle) {
				t.Fatalf("table holds %d keys, oracle %d", tab.Len(), len(oracle))
			}
			if resizes < tc.minResizes {
				t.Fatalf("%d index resizes, want at least %d", resizes, tc.minResizes)
			}
			for k, i := range oracle {
				if got := tab.Key(i); string(got) != k {
					t.Fatalf("Key(%d) = %x, want %x", i, got, k)
				}
				if tab.ID(i) != -1 {
					t.Fatalf("entry %d numbered without Number", i)
				}
			}
			for i := 0; i < 100; i++ {
				k := []byte(fmt.Sprintf("absent-%d", i))
				if _, ok := oracle[string(k)]; ok {
					continue
				}
				if _, ok := tab.Find(Hash64(k), k); ok {
					t.Fatalf("absent key %q found", k)
				}
			}
		})
	}
}
