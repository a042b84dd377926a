package statestore

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/statecodec"
)

// TestFlushEmptiesHotTables checks what a table flush frees: after the
// EndLevel that spills, no key is resident in any shard's hot table,
// and the resident count has fallen by exactly the flushed tables'
// bytes, less the cold indexes that replaced them, counted from their
// real slot slices.
func TestFlushEmptiesHotTables(t *testing.T) {
	s, err := Open(Config{MemBudget: 1, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 1000
	for i := 0; i < n; i++ {
		s.Number(s.Intern([]byte(fmt.Sprintf("state-%06d", i))), int32(i))
	}
	var hot int64
	for i := range s.shards {
		hot += s.shards[i].hot.Bytes()
	}
	before := s.resident.Load()
	if hot == 0 || before != hot {
		t.Fatalf("before the flush: resident %d, hot tables %d bytes", before, hot)
	}
	if err := s.EndLevel(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.TableFlushes != 1 {
		t.Fatalf("expected one flush under a 1-byte budget, stats: %+v", st)
	}
	var cold, slots int64
	for i := range s.shards {
		if l := s.shards[i].hot.Len(); l != 0 {
			t.Fatalf("shard %d keeps %d keys resident after the flush", i, l)
		}
		c := &s.shards[i].cold
		cold += int64(len(c.tags))*int64(unsafe.Sizeof(c.tags[0])) + int64(len(c.ents))*int64(unsafe.Sizeof(c.ents[0]))
		slots += int64(len(c.tags))
	}
	if got, want := s.resident.Load(), before-hot+cold; got != want {
		t.Fatalf("resident after the flush: %d bytes, want %d", got, want)
	}
	if slots < n || cold > 20*n+16*statecodec.NumShards {
		t.Fatalf("%d cold slots (%d bytes) index %d spilled entries", slots, cold, n)
	}
}
