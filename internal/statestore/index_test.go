package statestore_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/statecodec"
)

// oracleRun drives a budget-1 Store beside a map[string]int32 oracle:
// every key is interned, checked, and numbered at once, so each
// endLevel flushes the hot tables into a new generation.
type oracleRun struct {
	t   *testing.T
	s   *statecodec.Store
	ids map[string]int32
}

func newOracleRun(t *testing.T) *oracleRun {
	return newOracleRunOn(t, open(1, t.TempDir()))
}

func newOracleRunOn(t *testing.T, s *statecodec.Store) *oracleRun {
	t.Cleanup(func() { s.Close() })
	return &oracleRun{t: t, s: s, ids: make(map[string]int32)}
}

// intern interns k and checks the result against the oracle: a known
// key resolves to its ID, an unknown one is fresh and gets the next ID.
func (o *oracleRun) intern(k []byte) {
	o.t.Helper()
	ref := o.s.Intern(k)
	if want, ok := o.ids[string(k)]; ok {
		if ref.ID != want {
			o.t.Fatalf("key %x resolved to %+v, oracle ID %d", k, ref, want)
		}
		return
	}
	if ref.ID != -1 {
		o.t.Fatalf("unseen key %x resolved to %+v", k, ref)
	}
	next := int32(len(o.ids))
	if id, fresh, got := o.s.Number(ref, next); id != next || !fresh || string(got) != string(k) {
		o.t.Fatalf("Number(%x): id %d fresh %v key %x", k, id, fresh, got)
	}
	o.ids[string(k)] = next
}

func (o *oracleRun) endLevel() {
	o.t.Helper()
	flushes := o.s.Stats().TableFlushes
	if err := o.s.EndLevel(); err != nil {
		o.t.Fatal(err)
	}
	if o.s.Stats().TableFlushes != flushes+1 {
		o.t.Fatalf("EndLevel under a 1-byte budget did not flush: %+v", o.s.Stats())
	}
}

// checkAll re-interns every key the oracle knows and checks that none
// was interned twice.
func (o *oracleRun) checkAll() {
	o.t.Helper()
	for k := range o.ids {
		o.intern([]byte(k))
	}
	if got := o.s.Stats().Interned; got != int64(len(o.ids)) {
		o.t.Fatalf("store interned %d keys, oracle knows %d", got, len(o.ids))
	}
}

// sameShardTagPair searches pseudo-random keys of 12 or, when varyLen
// is set, 12 and 13 bytes for two of shard 0 whose Hash64 share the high
// 32 bits: the tag both the hot table and the cold index probe by. One
// shard makes the two keys meet in one index. The first pair turns up
// after 99,573 keys of the shard (6.4 M tries), or 73,208 (4.7 M) when
// the lengths must differ.
func sameShardTagPair(t *testing.T, varyLen bool) ([]byte, []byte) {
	seen := make(map[uint32][]byte)
	var buf [16]byte
	for i := uint64(0); i < 1<<26; i++ {
		binary.LittleEndian.PutUint64(buf[:], splitmix(i))
		binary.LittleEndian.PutUint64(buf[8:], splitmix(^i))
		k := buf[:12]
		if varyLen {
			k = buf[:12+i%2]
		}
		h := statecodec.Hash64(k)
		if h&(statecodec.NumShards-1) != 0 {
			continue
		}
		tag := uint32(h >> 32)
		if prev, ok := seen[tag]; ok && (!varyLen || len(prev) != len(k)) {
			return prev, append([]byte(nil), k...)
		}
		seen[tag] = append([]byte(nil), k...)
	}
	t.Fatal("no two keys of one shard share a tag")
	return nil, nil
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func le64(i uint64) []byte { return binary.LittleEndian.AppendUint64(nil, i) }

// TestColdIndexTagCollision looks up two keys with one tag in one shard:
// with one hot and one spilled, then with both spilled in different
// generations.
func TestColdIndexTagCollision(t *testing.T) {
	a, b := sameShardTagPair(t, false)
	t.Run("hot and spilled", func(t *testing.T) {
		o := newOracleRun(t)
		o.intern(a)
		o.endLevel()
		o.intern(b)
		o.checkAll()
	})
	t.Run("two generations", func(t *testing.T) {
		o := newOracleRun(t)
		o.intern(a)
		o.endLevel()
		o.intern(b)
		o.endLevel()
		o.checkAll()
	})
}

// TestColdIndexTagCollisionLengths spills two keys of one shard that
// share a tag but differ in length.
func TestColdIndexTagCollisionLengths(t *testing.T) {
	a, b := sameShardTagPair(t, true)
	o := newOracleRun(t)
	o.intern(a)
	o.endLevel()
	o.intern(b)
	o.checkAll()
	o.endLevel()
	o.checkAll()
}

// TestColdIndexOldestOfManyGenerations interns a key in the first of 48
// generations and looks it up after each later one spills.
func TestColdIndexOldestOfManyGenerations(t *testing.T) {
	o := newOracleRun(t)
	first := []byte("first")
	o.intern(first)
	o.endLevel()
	for g := uint64(1); g < 48; g++ {
		for i := uint64(0); i < 100; i++ {
			o.intern(le64(g<<32 | i))
		}
		o.endLevel()
		o.intern(first)
	}
	if got := o.s.Stats().TableFlushes; got != 48 {
		t.Fatalf("%d generations spilled, want 48", got)
	}
	if ref := o.s.Intern(first); ref.ID != 0 {
		t.Fatalf("first key resolved to %+v after 48 generations", ref)
	}
	o.checkAll()
}

// TestColdIndexEmptyKey spills a zero-length key, the encoding of every
// state under an all-singleton layout, alone into a 0-byte generation
// file and then beside other keys.
func TestColdIndexEmptyKey(t *testing.T) {
	o := newOracleRun(t)
	o.intern([]byte{})
	o.endLevel()
	if ref := o.s.Intern(nil); ref.ID != 0 {
		t.Fatalf("spilled empty key resolved to %+v", ref)
	}
	for i := uint64(0); i < 500; i++ {
		o.intern(le64(i))
	}
	o.endLevel()
	o.checkAll()
}

// TestGenerationLimit spills the most generations a cold slot can name,
// 65,536, through an in-memory spill filesystem, and checks that the
// flush past them fails instead of wrapping the slots' generation field.
func TestGenerationLimit(t *testing.T) {
	const limit = 1 << 16
	o := newOracleRunOn(t, statecodec.NewStore(statecodec.Config{MemBudget: 1}, memFS{}))
	for g := uint64(0); g < limit; g++ {
		o.intern(le64(g))
		o.endLevel()
	}
	o.intern(le64(limit))
	err := o.s.EndLevel()
	if err == nil || !strings.Contains(err.Error(), "more than 65536 generation files") {
		t.Fatalf("flush past the generation limit: %v", err)
	}
	o.checkAll()
}

// memFS is a spill filesystem in memory: every file is a buffer, and
// maps to its bytes.
type memFS struct{}

func (memFS) MkdirTemp(string) (string, error)                    { return "mem", nil }
func (memFS) Create(string, string) (statecodec.SpillFile, error) { return &memFile{}, nil }
func (memFS) RemoveAll(string) error                              { return nil }

type memFile struct{ bytes.Buffer }

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > int64(f.Len()) {
		return 0, errors.New("memFile: read past the end")
	}
	return copy(p, f.Bytes()[off:]), nil
}
func (f *memFile) Map(size int64) ([]byte, error) { return f.Bytes()[:size], nil }
func (f *memFile) Close() error                   { return nil }
func (f *memFile) Remove() error                  { return nil }
