package statecodec

import (
	"bytes"
	"math"
)

// shardBits is log2 of NumShards.
const shardBits = 6

// NumShards is the number of intern-table lock stripes of the Store; a
// power of two so shard selection is a mask over the low bits of
// Hash64. The hash only picks the stripe — it never influences the
// produced LTS.
const NumShards = 1 << shardBits

// Hash64 is FNV-1a over b. In the Store its low bits pick the shard and
// its high 32 bits are the Table tag, which the cold index reuses.
func Hash64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Table is the intern table behind the state store's shards: an
// open-addressing index over one key arena, with an ID column. Entry
// i's key is arena[ends[i-1]:ends[i]] and its state ID is ids[i], -1
// until the explorer's merge numbers it. Every slice holds plain integers, so the
// runtime allocates them noscan and the GC never walks per-state data,
// however many states the table holds. Callers pass each key's Hash64;
// its high 32 bits are the entry's tag, which places the entry in the
// index and filters probes before any key comparison. The uint32 ends
// cap a table at 4 GiB of keys. A Table is not safe for concurrent use.
type Table struct {
	// index slots hold tag<<32 | entry+1; 0 marks an empty slot.
	index []uint64
	ends  []uint32
	ids   []int32
	arena []byte
}

// Len is the number of interned keys.
func (t *Table) Len() int { return len(t.ends) }

// Key returns entry i's key. It aliases the arena and is valid until the
// next Intern.
func (t *Table) Key(i int32) []byte {
	var start uint32
	if i > 0 {
		start = t.ends[i-1]
	}
	return t.arena[start:t.ends[i]]
}

// ID is entry i's state ID, or -1 while it is unnumbered.
func (t *Table) ID(i int32) int32 { return t.ids[i] }

// Number gives entry i the ID next unless it already has one, and
// returns the entry's ID, whether this call assigned it, and — when it
// did — the entry's key, valid until the next Intern.
func (t *Table) Number(i, next int32) (id int32, fresh bool, key []byte) {
	if id := t.ids[i]; id >= 0 {
		return id, false, nil
	}
	t.ids[i] = next
	return next, true, t.Key(i)
}

// KeyBytes is the summed size of the interned keys.
func (t *Table) KeyBytes() int64 { return int64(len(t.arena)) }

// Bytes is the table's resident size, from the real lengths of its
// index, end-offset, ID and key slices.
func (t *Table) Bytes() int64 {
	return int64(8*len(t.index)+4*len(t.ends)+4*len(t.ids)) + t.KeyBytes()
}

// Find returns the entry holding key, whose Hash64 is h.
func (t *Table) Find(h uint64, key []byte) (int32, bool) {
	tag := h >> 32
	mask := uint64(len(t.index) - 1)
	// An empty index fails the bound; a sized one has a free slot to stop at.
	for p := tag & mask; p < uint64(len(t.index)); p = (p + 1) & mask {
		s := t.index[p]
		if s == 0 {
			break
		}
		if s>>32 == tag {
			if i := int32(uint32(s)) - 1; bytes.Equal(t.Key(i), key) {
				return i, true
			}
		}
	}
	return 0, false
}

// Intern returns key's entry, whose Hash64 is h, appending key as a new
// unnumbered entry on first sight.
func (t *Table) Intern(h uint64, key []byte) (i int32, fresh bool) {
	if i, ok := t.Find(h, key); ok {
		return i, false
	}
	return t.add(h, key), true
}

// add appends key, whose Hash64 is h and which the table does not hold,
// as a new unnumbered entry.
func (t *Table) add(h uint64, key []byte) int32 {
	if uint64(len(t.arena))+uint64(len(key)) > math.MaxUint32 {
		panic("statecodec: intern table exceeds 4 GiB of key bytes")
	}
	if 4*(len(t.ends)+1) > 3*len(t.index) {
		old := t.index
		t.index = make([]uint64, max(16, 2*len(old)))
		for _, s := range old {
			if s != 0 {
				t.place(s)
			}
		}
	}
	i := int32(len(t.ends))
	t.arena = append(t.arena, key...)
	t.ends = append(t.ends, uint32(len(t.arena)))
	t.ids = append(t.ids, -1)
	t.place(h>>32<<32 | uint64(i+1))
	return i
}

// eachTag calls fn with every entry and its tag, the high 32 bits of
// the Hash64 it was interned under, in index order. A flush that moves
// the entries into the cold index takes their tags from here instead of
// hashing every key again.
func (t *Table) eachTag(fn func(i int32, tag uint32)) {
	for _, s := range t.index {
		if s != 0 {
			fn(int32(uint32(s))-1, uint32(s>>32))
		}
	}
}

// place stores slot in the first free index position from its tag on.
func (t *Table) place(slot uint64) {
	mask := uint64(len(t.index) - 1)
	p := slot >> 32 & mask
	for t.index[p] != 0 {
		p = (p + 1) & mask
	}
	t.index[p] = slot
}

// shardRef is the Ref of entry i of shard si's table t: the entry's ID
// once numbered, else a handle naming shard and entry for Store.Number.
func shardRef(si uint64, t *Table, i int32) Ref {
	if id := t.ids[i]; id >= 0 {
		return Ref{ID: id}
	}
	if i >= 1<<(32-shardBits) {
		panic("statecodec: intern shard exceeds 2^26 entries")
	}
	return Ref{ID: -1, Handle: uint32(i)<<shardBits | uint32(si)}
}

// shard splits an unnumbered Ref's handle into its shard and entry.
func (r Ref) shard() (si int, i int32) {
	return int(r.Handle & (NumShards - 1)), int32(r.Handle >> shardBits)
}
