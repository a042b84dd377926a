package statecodec

import "sync"

type memShard struct {
	mu  sync.Mutex
	tab Table
	_   [24]byte // pad to two cache lines so shard locks don't false-share
}

// memStore is the pure in-memory Store: every interned key and every
// frontier level stays resident. It is the default backend of the
// explorer and the only one available to core-layer consumers (the
// library facade without platform wiring, the wasm playground); the
// spilling statestore produces byte-identical LTSs beyond RAM.
type memStore struct {
	shards [NumShards]memShard

	peakResident int64

	cur  *memLevel
	next *memLevel
}

// OpenMem creates an empty in-memory store. The configuration's
// MemBudget and Dir are ignored: nothing ever leaves RAM and no
// filesystem path is touched.
func OpenMem(Config) (Store, error) {
	return &memStore{cur: &memLevel{}, next: &memLevel{}}, nil
}

// Intern returns the reference for key, creating an unnumbered resident
// entry on first sight. Safe for concurrent use; the key buffer may be
// reused by the caller after the call returns.
func (s *memStore) Intern(key []byte) Ref {
	h := Hash64(key)
	si := h & (NumShards - 1)
	sh := &s.shards[si]
	sh.mu.Lock()
	i, _ := sh.tab.Intern(h, key)
	ref := ShardRef(si, &sh.tab, i)
	sh.mu.Unlock()
	return ref
}

// Number gives the unnumbered entry ref names the ID next unless it
// already has one. Single-threaded (merge only).
func (s *memStore) Number(ref Ref, next int32) (int32, bool, []byte) {
	si, i := ref.Shard()
	return s.shards[si].tab.Number(i, next)
}

// memLevel is one BFS frontier level, entirely resident: key bytes
// back to back in buf, with cumulative end offsets (one per key).
type memLevel struct {
	n    int
	offs []int64
	buf  []byte
}

// Len is the number of states in the level.
func (l *memLevel) Len() int { return l.n }

// Chunk returns the encoded keys of states [start, end) of the level.
// The returned slices alias the level buffer and the reader's Keys
// array; they are valid until the next Chunk call on the same reader.
func (l *memLevel) Chunk(start, end int, cr *ChunkReader) ([][]byte, error) {
	var base int64
	if start > 0 {
		base = l.offs[start-1]
	}
	cr.Keys = cr.Keys[:0]
	prev := base
	for i := start; i < end; i++ {
		e := l.offs[i]
		cr.Keys = append(cr.Keys, l.buf[prev:e])
		prev = e
	}
	return cr.Keys, nil
}

// PushFrontier appends one state key to the level under construction.
// Single-threaded (merge only).
func (s *memStore) PushFrontier(key []byte) error {
	b := s.next
	b.buf = append(b.buf, key...)
	b.offs = append(b.offs, int64(len(b.buf)))
	b.n++
	return nil
}

// resident is the store's resident set: every table plus the hot
// frontier bytes. It only grows between NextLevel calls.
func (s *memStore) resident() int64 {
	n := int64(len(s.cur.buf) + len(s.next.buf))
	for i := range s.shards {
		n += s.shards[i].tab.Bytes()
	}
	return n
}

// NextLevel seals the level under construction for reading and releases
// the previously returned level. Single-threaded (explorer loop only).
func (s *memStore) NextLevel() (Level, error) {
	s.peakResident = max(s.peakResident, s.resident())
	// The released level's buffers carry the next level.
	old := s.cur
	s.cur = s.next
	s.next = &memLevel{offs: old.offs[:0], buf: old.buf[:0]}
	return s.cur, nil
}

// EndLevel is a no-op: the in-memory store has nothing to shed.
func (s *memStore) EndLevel() error { return nil }

// Stats snapshots the store's telemetry; the spill counters are always
// zero.
func (s *memStore) Stats() Stats {
	st := Stats{PeakResidentBytes: max(s.peakResident, s.resident())}
	for i := range s.shards {
		st.Interned += int64(s.shards[i].tab.Len())
		st.InternedBytes += s.shards[i].tab.KeyBytes()
	}
	return st
}

// Close is a no-op; the store holds no resources beyond the heap.
func (s *memStore) Close() error { return nil }
