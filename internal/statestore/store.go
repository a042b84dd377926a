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
	"sort"
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

// genEntryOverhead is the resident index cost of one spilled entry
// (hash, offset, length, ID in the generation index arrays).
const genEntryOverhead = 14

// shardGen is the in-RAM index of one shard's slice of a spilled
// generation: entries sorted by hash for binary search, with the key
// bytes living in the generation's mmap'd file.
type shardGen struct {
	data   []byte // whole generation file contents (mmap'd, shared)
	hashes []uint32
	offs   []uint32
	lens   []uint16
	ids    []int32
}

// find looks key (with hash h) up in this generation slice.
func (g *shardGen) find(h uint32, key []byte) (int32, bool) {
	i := sort.Search(len(g.hashes), func(i int) bool { return g.hashes[i] >= h })
	for ; i < len(g.hashes) && g.hashes[i] == h; i++ {
		off, ln := int(g.offs[i]), int(g.lens[i])
		if ln == len(key) && bytes.Equal(g.data[off:off+ln], key) {
			return g.ids[i], true
		}
	}
	return 0, false
}

// shard is one lock stripe, 128 bytes, so shard locks don't false-share.
type shard struct {
	mu   sync.Mutex
	hot  statecodec.Table
	gens []shardGen // spilled generations, oldest first
}

// generation tracks one spilled generation file for cleanup.
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
	fileSeq int
	stats   Stats

	cur  *Level // level being expanded
	next *levelWriter

	closed bool
}

// Open creates an empty store. The caller must Close it to release any
// spill files; Close is safe (and cheap) when nothing ever spilled.
func Open(cfg Config) (*Store, error) {
	s := &Store{cfg: cfg}
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
	for gi := len(sh.gens) - 1; gi >= 0; gi-- {
		if id, ok := sh.gens[gi].find(uint32(h>>32), key); ok {
			return Ref{ID: id}
		}
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
// append-only generation file and replaces the hot tables with compact
// sorted indexes over the mmap'd file. Must only run at a level
// boundary: every hot entry must carry an assigned ID, because after
// the flush the key bytes are reachable only through the file.
func (s *Store) flushTable() error {
	f, err := s.newSpillFile("gen")
	if err != nil {
		return err
	}
	w := newSpillWriter(f)
	var off int64
	var freedBytes int64
	var spilled int64
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		n := sh.hot.Len()
		if n == 0 {
			sh.mu.Unlock()
			continue
		}
		sg := shardGen{
			hashes: make([]uint32, 0, n),
			offs:   make([]uint32, 0, n),
			lens:   make([]uint16, 0, n),
			ids:    make([]int32, 0, n),
		}
		for i := int32(0); i < int32(n); i++ {
			key, id := sh.hot.Key(i), sh.hot.ID(i)
			if id < 0 {
				sh.mu.Unlock()
				f.Close()
				return fmt.Errorf("statestore: internal error: flushing unnumbered entry")
			}
			if len(key) > math.MaxUint16 {
				sh.mu.Unlock()
				f.Close()
				return fmt.Errorf("statestore: state encoding of %d bytes exceeds generation record limit", len(key))
			}
			if off+int64(len(key)) > math.MaxUint32 {
				sh.mu.Unlock()
				f.Close()
				return fmt.Errorf("statestore: generation file exceeds 4 GiB; use a larger memory budget")
			}
			w.write(key)
			sg.hashes = append(sg.hashes, uint32(statecodec.Hash64(key)>>32))
			sg.offs = append(sg.offs, uint32(off))
			sg.lens = append(sg.lens, uint16(len(key)))
			sg.ids = append(sg.ids, id)
			off += int64(len(key))
		}
		spilled += int64(n)
		freedBytes += sh.hot.Bytes()
		sortShardGen(&sg)
		sh.gens = append(sh.gens, sg)
		sh.hot = statecodec.Table{}
		sh.mu.Unlock()
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
	// Point this flush's shard indexes at the mapped file.
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		if n := len(sh.gens); n > 0 && sh.gens[n-1].data == nil {
			sh.gens[n-1].data = data
		}
		sh.mu.Unlock()
	}
	s.addResident(genEntryOverhead*spilled - freedBytes)
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

// sortShardGen sorts the four parallel index arrays by hash (ties by
// file offset, for determinism of the in-RAM index only — lookups are
// order-insensitive).
func sortShardGen(g *shardGen) {
	sort.Sort((*genSort)(g))
}

type genSort shardGen

func (g *genSort) Len() int { return len(g.hashes) }
func (g *genSort) Less(i, j int) bool {
	if g.hashes[i] != g.hashes[j] {
		return g.hashes[i] < g.hashes[j]
	}
	return g.offs[i] < g.offs[j]
}
func (g *genSort) Swap(i, j int) {
	g.hashes[i], g.hashes[j] = g.hashes[j], g.hashes[i]
	g.offs[i], g.offs[j] = g.offs[j], g.offs[i]
	g.lens[i], g.lens[j] = g.lens[j], g.lens[i]
	g.ids[i], g.ids[j] = g.ids[j], g.ids[i]
}
