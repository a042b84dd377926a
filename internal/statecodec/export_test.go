package statecodec

import "unsafe"

// Resident is the store's resident set as the budget reads it, with the
// hot tables summed afresh.
func (s *Store) Resident() int64 {
	s.tablesKnown = false
	return s.resident()
}

// ShardSizes reports shard i's hot-table length and bytes and its cold
// index's entry count and bytes, the latter counted from the real slot
// slices rather than by coldIndex.bytes.
func (s *Store) ShardSizes(i int) (hotLen int, hotBytes int64, coldEntries int, coldBytes int64) {
	sh := &s.shards[i]
	c := &sh.cold
	coldBytes = int64(len(c.tags))*int64(unsafe.Sizeof(uint32(0))) + int64(len(c.ents))*int64(unsafe.Sizeof(coldEntry{}))
	return sh.hot.Len(), sh.hot.Bytes(), c.n, coldBytes
}
