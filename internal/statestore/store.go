// Package statestore is the platform half of the explorer's state
// storage: a statecodec.Store implementation whose sharded intern table
// spills closed generations to append-only mmap'd temp files past a
// configurable memory budget, and whose BFS frontier runs through a
// two-queue structure (hot in-RAM buffer, cold on-disk run files)
// replayed level by level. It also hosts the process telemetry probe
// (peak RSS via /proc on Linux, zero elsewhere).
//
// The pure layout/codec types and the storage contract live in
// internal/statecodec; this package owns only where the bytes go when
// they leave RAM. Nothing here influences state identity or discovery
// order, so the produced LTS is byte-identical for any memory budget.
package statestore

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/statecodec"
)

// Config bounds a Store: statecodec.Config with the budget semantics
// this package implements. When the budget is exceeded, closed
// intern-table generations flush to append-only temp files and the
// frontier of the next level goes to an on-disk run file; the spill
// directory and everything in it are removed by Close.
type Config = statecodec.Config

// Ref and Stats are the shared storage-contract types; see statecodec.
// A hot entry's key lives in its shard's table until the table's
// generation spills, at which point it lives in a generation file and
// only its final ID comes back from Intern.
type (
	Ref   = statecodec.Ref
	Stats = statecodec.Stats
)

// coldEntry is where one spilled entry lives: its state ID and its
// key's generation file, offset and length.
type coldEntry struct {
	id  int32
	off uint32 // key offset in its generation file
	len uint16 // key length
	gen uint16 // generation file, an index into Store.gens
}

// coldIndex is one shard's index over every entry it has spilled, from
// all generations at once: linear probing from the tag scaled to the
// slot count, so a spilled hit or miss is one probe sequence however
// many generations have spilled. Each slot is 16 bytes: a uint32 tag,
// the high 32 bits of the key's Hash64 with the low bit forced to 1 so
// that 0 can mark an empty slot (a key's length cannot: a layout whose
// slots are all singletons encodes every state in 0 bytes), and a
// coldEntry. The tags sit in their own slice, so a probe reads 4 bytes
// a slot and touches an entry, and its key in the mmap'd file, only on
// a tag match.
type coldIndex struct {
	tags []uint32
	ents []coldEntry
	n    int // occupied slots
}

func (c *coldIndex) home(tag uint32) int {
	return int(uint64(tag) * uint64(len(c.tags)) >> 32)
}

// find looks key up among the spilled entries; tag is the high 32 bits
// of its Hash64, and gens resolves an entry's generation to its file
// bytes. The load stays below 1, so the probe ends at an empty slot.
func (c *coldIndex) find(tag uint32, key []byte, gens []generation) (int32, bool) {
	if len(c.tags) == 0 {
		return 0, false
	}
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
	hot  statecodec.Table
	cold coldIndex
}

// generation is one spilled generation file: its bytes, which cold
// entries point into, and what Close must release.
type generation struct {
	f      *os.File
	data   []byte
	mapped bool
}

// Store is the explorer's state storage: the sharded intern table and
// the level-ordered frontier, both subject to one shared memory budget.
//
// Concurrency contract: Intern is safe for concurrent use (expansion
// workers). Number, PushFrontier, NextLevel, EndLevel, Stats and Close
// are single-threaded explorer-merge operations and must not race with
// Intern calls (the level-synchronized explorer guarantees this: all
// workers join before the merge runs).
type Store struct {
	cfg    Config
	dir    string // private spill directory, created on first spill
	shards [statecodec.NumShards]shard

	resident      atomic.Int64
	peakResident  atomic.Int64
	interned      atomic.Int64
	internedBytes atomic.Int64

	gens    []generation
	maxGens int // generation files a coldEntry can name
	fileSeq int
	stats   Stats

	// One write buffer per stream, reset onto each new file: generation
	// flushes and frontier runs can be open at once.
	genW, runW spillWriter

	cur  *Level // level being expanded
	next *levelWriter

	closed bool
}

// Open creates an empty store. The caller must Close it to release any
// spill files; Close is safe (and cheap) when nothing ever spilled.
func Open(cfg Config) (*Store, error) {
	s := &Store{cfg: cfg, maxGens: math.MaxUint16 + 1}
	s.next = &levelWriter{s: s}
	return s, nil
}

func (s *Store) addResident(delta int64) {
	r := s.resident.Add(delta)
	for {
		p := s.peakResident.Load()
		if r <= p || s.peakResident.CompareAndSwap(p, r) {
			return
		}
	}
}

func (s *Store) overBudget() bool {
	return s.cfg.MemBudget > 0 && s.resident.Load() > s.cfg.MemBudget
}

// Intern returns the reference for key, creating an unnumbered resident
// entry on first sight. Safe for concurrent use; the key buffer may be
// reused by the caller after the call returns.
func (s *Store) Intern(key []byte) Ref {
	h := statecodec.Hash64(key)
	si := h & (statecodec.NumShards - 1)
	sh := &s.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if i, ok := sh.hot.Find(h, key); ok {
		return statecodec.ShardRef(si, &sh.hot, i)
	}
	if id, ok := sh.cold.find(uint32(h>>32), key, s.gens); ok {
		return Ref{ID: id}
	}
	before := sh.hot.Bytes()
	i, _ := sh.hot.Intern(h, key)
	s.interned.Add(1)
	s.internedBytes.Add(int64(len(key)))
	s.addResident(sh.hot.Bytes() - before)
	return statecodec.ShardRef(si, &sh.hot, i)
}

// Number gives the unnumbered entry ref names the ID next unless it
// already has one. Single-threaded (merge only).
func (s *Store) Number(ref Ref, next int32) (int32, bool, []byte) {
	si, i := ref.Shard()
	return s.shards[si].hot.Number(i, next)
}

// ensureDir creates the store's private spill directory on first use.
// A store with an unlimited budget must never get here: pure in-RAM
// runs (and js builds routed through the in-memory backend) are
// guaranteed to touch no filesystem, so an attempt to spill without a
// budget is an internal invariant violation, not a reason to create
// temp files.
func (s *Store) ensureDir() error {
	if s.dir != "" {
		return nil
	}
	if s.cfg.MemBudget <= 0 {
		return fmt.Errorf("statestore: internal error: spill attempted with an unlimited memory budget")
	}
	dir, err := os.MkdirTemp(s.cfg.Dir, "bbv-statestore-*")
	if err != nil {
		return fmt.Errorf("statestore: create spill dir: %w", err)
	}
	s.dir = dir
	return nil
}

func (s *Store) newSpillFile(prefix string) (*os.File, error) {
	if err := s.ensureDir(); err != nil {
		return nil, err
	}
	s.fileSeq++
	f, err := os.Create(filepath.Join(s.dir, fmt.Sprintf("%s-%06d", prefix, s.fileSeq)))
	if err != nil {
		return nil, fmt.Errorf("statestore: create spill file: %w", err)
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
	if gen >= s.maxGens {
		return fmt.Errorf("statestore: more than %d generation files; use a larger memory budget", s.maxGens)
	}
	f, err := s.newSpillFile("gen")
	if err != nil {
		return err
	}
	w := &s.genW
	w.reset(f)
	var off, delta int64
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		if sh.hot.Len() == 0 {
			sh.mu.Unlock()
			continue
		}
		delta -= sh.hot.Bytes() + sh.cold.bytes()
		sh.cold.reserve(sh.hot.Len())
		sh.hot.Tags(func(i int32, tag uint32) {
			key, id := sh.hot.Key(i), sh.hot.ID(i)
			switch {
			case err != nil:
				return
			case id < 0:
				err = fmt.Errorf("statestore: internal error: flushing unnumbered entry")
			case len(key) > math.MaxUint16:
				err = fmt.Errorf("statestore: state encoding of %d bytes exceeds generation record limit", len(key))
			case off+int64(len(key)) > math.MaxUint32:
				err = fmt.Errorf("statestore: generation file exceeds 4 GiB; use a larger memory budget")
			default:
				w.write(key)
				sh.cold.put(tag, coldEntry{id: id, off: uint32(off), len: uint16(len(key)), gen: uint16(gen)})
				off += int64(len(key))
			}
		})
		sh.hot = statecodec.Table{}
		delta += sh.cold.bytes()
		sh.mu.Unlock()
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := w.flush(); err != nil {
		f.Close()
		return fmt.Errorf("statestore: write generation: %w", err)
	}
	data, mapped, err := mmapFile(f, off)
	if err != nil {
		f.Close()
		return fmt.Errorf("statestore: map generation: %w", err)
	}
	s.gens = append(s.gens, generation{f: f, data: data, mapped: mapped})
	s.addResident(delta)
	s.stats.TableFlushes++
	return nil
}

// EndLevel closes the level just merged: if the store is over budget
// and the hot table holds anything worth shedding, the closed
// generation flushes to disk. Called by the explorer after each merge,
// when every interned entry carries its final ID.
func (s *Store) EndLevel() error {
	if !s.overBudget() {
		return nil
	}
	hot := int64(0)
	for si := range s.shards {
		s.shards[si].mu.Lock()
		hot += int64(s.shards[si].hot.Len())
		s.shards[si].mu.Unlock()
	}
	if hot == 0 {
		return nil
	}
	return s.flushTable()
}

// Stats snapshots the store's telemetry.
func (s *Store) Stats() Stats {
	st := s.stats
	st.Interned = s.interned.Load()
	st.InternedBytes = s.internedBytes.Load()
	st.PeakResidentBytes = s.peakResident.Load()
	return st
}

// Close releases every resource the store holds: mmap regions, open
// spill files, and the spill directory itself. It is idempotent and
// must run on every explorer exit path — success, cancellation and
// state-limit abort alike.
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
		g := &s.gens[i]
		if g.mapped {
			keep(munmapFile(g.data))
		}
		g.data = nil
		keep(g.f.Close())
	}
	s.gens = nil
	if s.cur != nil && s.cur.f != nil {
		keep(s.cur.f.Close())
		s.cur.f = nil
	}
	if s.next != nil && s.next.f != nil {
		keep(s.next.w.flush())
		keep(s.next.f.Close())
		s.next.f = nil
	}
	if s.dir != "" {
		keep(os.RemoveAll(s.dir))
		s.dir = ""
	}
	return first
}
