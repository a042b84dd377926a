package statecodec

import (
	"bytes"
	"fmt"
	"math"
	"sync"
)

// coldEntry is where one spilled entry lives: its state ID and its
// key's generation file, offset and length.
type coldEntry struct {
	id  int32
	off uint32 // key offset in its generation file
	len uint16 // key length
	gen uint16 // generation file, an index into Store.gens
}

// maxGens is the number of generation files a coldEntry can name.
const maxGens = math.MaxUint16 + 1

// coldIndex is one shard's index over every entry it has spilled, from
// all generations at once: linear probing from the tag scaled to the
// slot count, so a spilled hit or miss is one probe sequence however
// many generations have spilled. Each slot is 16 bytes: a uint32 tag,
// the high 32 bits of the key's Hash64 with the low bit forced to 1 so
// that 0 can mark an empty slot (a key's length cannot: a layout whose
// slots are all singletons encodes every state in 0 bytes), and a
// coldEntry. The tags sit in their own slice, so a probe reads 4 bytes
// a slot and touches an entry, and its key in the mapped file, only on
// a tag match.
type coldIndex struct {
	n    int // occupied slots
	tags []uint32
	ents []coldEntry
}

func (c *coldIndex) home(tag uint32) int {
	return int(uint64(tag) * uint64(len(c.tags)) >> 32)
}

// find looks key up among the spilled entries; tag is the high 32 bits
// of its Hash64, and gens resolves an entry's generation to its file
// bytes. The load stays below 1, so the probe ends at an empty slot.
func (c *coldIndex) find(tag uint32, key []byte, gens []generation) (int32, bool) {
	tag |= 1
	for p := c.home(tag); ; {
		switch c.tags[p] {
		case 0:
			return 0, false
		case tag:
			e := &c.ents[p]
			if int(e.len) == len(key) && bytes.Equal(gens[e.gen].data[e.off:e.off+uint32(e.len)], key) {
				return e.id, true
			}
		}
		if p++; p == len(c.tags) {
			p = 0
		}
	}
}

// reserve makes room for more entries. When they would push the load
// past 7/8, it rebuilds the index with need + need/4 slots, a load of at
// least 4/5: the index costs 16/load, 18.3 to 20 bytes per entry.
func (c *coldIndex) reserve(more int) {
	need := c.n + more
	if 8*need <= 7*len(c.tags) {
		return
	}
	tags, ents := c.tags, c.ents
	size := max(need+need/4, need+1)
	c.tags, c.ents, c.n = make([]uint32, size), make([]coldEntry, size), 0
	for p, t := range tags {
		if t != 0 {
			c.put(t, ents[p])
		}
	}
}

// put inserts e, whose key's Hash64 has the high 32 bits tag, into a
// reserved index; e must not be present.
func (c *coldIndex) put(tag uint32, e coldEntry) {
	tag |= 1
	p := c.home(tag)
	for c.tags[p] != 0 {
		if p++; p == len(c.tags) {
			p = 0
		}
	}
	c.tags[p], c.ents[p] = tag, e
	c.n++
}

// bytes is the index's resident size, from its real slice lengths.
func (c *coldIndex) bytes() int64 { return 4*int64(len(c.tags)) + 12*int64(len(c.ents)) }

// shard is one lock stripe: the hot table of entries interned since the
// last flush, and the cold index of every entry spilled before it.
type shard struct {
	mu   sync.Mutex
	hot  Table
	cold coldIndex
	_    [32]byte // pad to three cache lines so shard locks don't false-share
}

// generation is one spilled generation file and its mapped bytes, which
// cold entries point into.
type generation struct {
	f    SpillFile
	data []byte
}

// Store is the explorer's state storage: the sharded intern table and
// the level-ordered frontier, both subject to one memory budget. While
// the store is within its budget everything stays in RAM; past it,
// EndLevel flushes the closed intern-table generation to an append-only
// spill file, and PushFrontier sends the rest of the level under
// construction to a run file. With a zero budget nothing ever spills.
//
// Concurrency contract: Intern is safe for concurrent use (expansion
// workers). Number, PushFrontier, NextLevel, EndLevel, Stats and Close
// are single-threaded explorer-merge operations and must not race with
// Intern calls (the level-synchronized explorer guarantees this: all
// workers join before the merge runs). The interns of a level come
// before its merge: PushFrontier reads the table sizes once per level.
//
// Keys come back from levels in exactly the order they were pushed,
// and Intern returns the same identity for equal keys, so state
// numbering never depends on the budget.
type Store struct {
	cfg    Config
	fs     SpillFS
	dir    string // private spill directory, created on first spill
	shards [NumShards]shard

	// The resident set is counted at the merge, never per intern: the
	// hot tables' bytes (summed once a level, valid while tablesKnown),
	// the cold indexes' bytes (which change only in a flush) and the hot
	// frontier bytes.
	tables, cold int64
	tablesKnown  bool
	peak         int64

	// Entries and key bytes flushed out of the hot tables.
	flushed, flushedBytes int64

	gens    []generation
	fileSeq int
	stats   Stats

	// One write buffer per stream, reset onto each new file: generation
	// flushes and frontier runs can be open at once.
	genW, runW spillWriter

	cur  *Level // level being expanded
	next *Level // level under construction

	closed bool
}

// NewStore creates an empty store that spills to fs past cfg.MemBudget.
// fs may be nil when the budget is 0. The caller must Close the store to
// release any spill files; Close is cheap when nothing ever spilled.
func NewStore(cfg Config, fs SpillFS) *Store {
	return &Store{cfg: cfg, fs: fs, cur: &Level{}, next: &Level{}}
}

// Intern returns the reference for key, creating an unnumbered resident
// entry on first sight. Safe for concurrent use; the key buffer may be
// reused by the caller after the call returns. Until its shard spills,
// an intern is one probe of the shard's hot table.
func (s *Store) Intern(key []byte) Ref {
	h := Hash64(key)
	si := h & (NumShards - 1)
	sh := &s.shards[si]
	sh.mu.Lock()
	i, ok := sh.hot.Find(h, key)
	if !ok {
		if sh.cold.n > 0 {
			if id, ok := sh.cold.find(uint32(h>>32), key, s.gens); ok {
				sh.mu.Unlock()
				return Ref{ID: id}
			}
		}
		i = sh.hot.add(h, key)
	}
	ref := shardRef(si, &sh.hot, i)
	sh.mu.Unlock()
	return ref
}

// Number gives the unnumbered entry ref names the ID next, unless an
// earlier Number already gave it one, and returns the entry's ID,
// whether this call assigned it, and — when it did — the entry's key,
// valid until the next Intern. Single-threaded (merge only).
func (s *Store) Number(ref Ref, next int32) (int32, bool, []byte) {
	si, i := ref.shard()
	return s.shards[si].hot.Number(i, next)
}

// resident is the store's resident set, and it raises the peak to it.
func (s *Store) resident() int64 {
	if !s.tablesKnown {
		s.tables = 0
		for i := range s.shards {
			s.tables += s.shards[i].hot.Bytes()
		}
		s.tablesKnown = true
	}
	r := s.tables + s.cold + int64(len(s.cur.buf)+len(s.next.buf))
	s.peak = max(s.peak, r)
	return r
}

// overBudget reports whether the resident set exceeds the budget.
func (s *Store) overBudget() bool {
	r := s.resident()
	return s.cfg.MemBudget > 0 && r > s.cfg.MemBudget
}

// ensureDir creates the store's private spill directory on first use.
// A store without a budget never gets here: a run with everything in RAM
// is guaranteed to touch no filesystem, so an attempt to spill without a
// budget, or without a filesystem, is an internal invariant violation,
// not a reason to create files.
func (s *Store) ensureDir() error {
	if s.dir != "" {
		return nil
	}
	if s.cfg.MemBudget <= 0 || s.fs == nil {
		return fmt.Errorf("statecodec: internal error: spill attempted without a memory budget and spill filesystem")
	}
	dir, err := s.fs.MkdirTemp(s.cfg.Dir)
	if err != nil {
		return fmt.Errorf("statecodec: create spill dir: %w", err)
	}
	s.dir = dir
	return nil
}

func (s *Store) newSpillFile(prefix string) (SpillFile, error) {
	if err := s.ensureDir(); err != nil {
		return nil, err
	}
	s.fileSeq++
	f, err := s.fs.Create(s.dir, fmt.Sprintf("%s-%06d", prefix, s.fileSeq))
	if err != nil {
		return nil, fmt.Errorf("statecodec: create spill file: %w", err)
	}
	s.stats.SpillFiles++
	return f, nil
}

// flushTable spills every hot intern-table entry into one new
// append-only generation file and moves it into its shard's cold index,
// with the tag the hot table already holds. Must only run at a level
// boundary: every hot entry must carry an assigned ID, because after
// the flush the key bytes are reachable only through the file.
func (s *Store) flushTable() error {
	gen := len(s.gens)
	if gen >= maxGens {
		return fmt.Errorf("statecodec: more than %d generation files; use a larger memory budget", maxGens)
	}
	f, err := s.newSpillFile("gen")
	if err != nil {
		return err
	}
	w := &s.genW
	w.reset(f)
	var off int64
	for si := range s.shards {
		sh := &s.shards[si]
		if sh.hot.Len() == 0 {
			continue
		}
		s.cold -= sh.cold.bytes()
		sh.cold.reserve(sh.hot.Len())
		sh.hot.eachTag(func(i int32, tag uint32) {
			key, id := sh.hot.Key(i), sh.hot.ID(i)
			switch {
			case err != nil:
				return
			case id < 0:
				err = fmt.Errorf("statecodec: internal error: flushing unnumbered entry")
			case len(key) > math.MaxUint16:
				err = fmt.Errorf("statecodec: state encoding of %d bytes exceeds generation record limit", len(key))
			case off+int64(len(key)) > math.MaxUint32:
				err = fmt.Errorf("statecodec: generation file exceeds 4 GiB; use a larger memory budget")
			default:
				w.write(key)
				sh.cold.put(tag, coldEntry{id: id, off: uint32(off), len: uint16(len(key)), gen: uint16(gen)})
				off += int64(len(key))
			}
		})
		s.flushed += int64(sh.hot.Len())
		s.flushedBytes += sh.hot.KeyBytes()
		sh.hot = Table{}
		s.cold += sh.cold.bytes()
		if err != nil {
			f.Close()
			return err
		}
	}
	s.tables, s.tablesKnown = 0, true
	if err := w.flush(); err != nil {
		f.Close()
		return fmt.Errorf("statecodec: write generation: %w", err)
	}
	data, err := f.Map(off)
	if err != nil {
		f.Close()
		return fmt.Errorf("statecodec: map generation: %w", err)
	}
	s.gens = append(s.gens, generation{f: f, data: data})
	s.stats.TableFlushes++
	return nil
}

// EndLevel closes the level just merged: if the store is over budget
// and the hot table holds anything worth shedding, the closed
// generation flushes to disk. Called by the explorer after each merge,
// when every interned entry carries its final ID.
func (s *Store) EndLevel() error {
	s.tablesKnown = false
	if !s.overBudget() {
		return nil
	}
	hot := 0
	for si := range s.shards {
		hot += s.shards[si].hot.Len()
	}
	if hot == 0 {
		return nil
	}
	if err := s.flushTable(); err != nil {
		return err
	}
	// A flush can grow the cold indexes by more than it frees.
	s.resident()
	return nil
}

// Stats snapshots the store's telemetry.
func (s *Store) Stats() Stats {
	st := s.stats
	st.Interned, st.InternedBytes = s.flushed, s.flushedBytes
	for i := range s.shards {
		st.Interned += int64(s.shards[i].hot.Len())
		st.InternedBytes += s.shards[i].hot.KeyBytes()
	}
	s.tablesKnown = false
	s.resident()
	st.PeakResidentBytes = s.peak
	return st
}

// Close releases every resource the store holds: mappings, open spill
// files, and the spill directory itself. It is idempotent and must run
// on every explorer exit path — success, cancellation and state-limit
// abort alike.
func (s *Store) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for i := range s.gens {
		s.gens[i].data = nil
		keep(s.gens[i].f.Close())
	}
	s.gens = nil
	if f := s.cur.f; f != nil {
		keep(f.Close())
		s.cur.f = nil
	}
	if f := s.next.f; f != nil {
		keep(s.runW.flush())
		keep(f.Close())
		s.next.f = nil
	}
	if s.dir != "" {
		keep(s.fs.RemoveAll(s.dir))
		s.dir = ""
	}
	return first
}
