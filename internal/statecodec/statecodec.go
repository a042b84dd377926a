// Package statecodec is the explorer's state storage, in OS-free Go:
// fixed-width bit-packed state encodings derived from value
// layouts (Slot, Layout, BitWriter, BitReader), the pointer-free intern
// Table, and the one state Store the explorer programs against — a
// sharded intern table plus the level-ordered BFS frontier, which past
// a memory budget spills closed table generations and frontier levels
// to files.
//
// The package belongs to the core layer: it imports no operating-system
// facilities and compiles unchanged for every GOOS/GOARCH pair,
// including js/wasm. The files a Store spills to come through the
// SpillFS seam, which the platform layer's internal/statestore
// implements with os and mmap; without it (the pure configuration) a
// store holds no budget and never touches a filesystem. Nothing a
// store does with its bytes influences state identity or discovery
// order, so the produced LTS is byte-identical for every budget.
package statecodec

import "io"

// Config bounds a Store.
type Config struct {
	// MemBudget is the approximate number of bytes of state storage the
	// store may keep resident (interned keys plus hot frontier bytes plus
	// bookkeeping); 0 means unlimited: nothing ever spills, and the
	// store never calls its SpillFS.
	MemBudget int64
	// Dir is the parent directory of the store's private spill
	// directory; empty uses the OS temp dir.
	Dir string
}

// Ref is the result of an intern: a numbered state's final ID, or ID -1
// and a Handle for Store.Number while the state awaits its number. Only
// the merge numbers states, and the store spills entries only after it,
// so a state no longer resident is always numbered. Ref holds no Go pointer,
// so the explorer's transition buffers stay noscan.
type Ref struct {
	ID     int32
	Handle uint32
}

// Stats reports the store's lifetime telemetry.
type Stats struct {
	// Interned is the number of distinct states interned.
	Interned int64
	// InternedBytes is the summed encoded size of those states; divided
	// by Interned it gives the effective bytes/state of the encoding.
	InternedBytes int64
	// PeakResidentBytes is the high-water mark of the store's resident
	// set (hot keys, bookkeeping, spilled-generation indexes, hot
	// frontier bytes).
	PeakResidentBytes int64
	// SpillFiles counts every temp file the store created (generation
	// files plus frontier run files); always 0 without a budget.
	SpillFiles int
	// TableFlushes counts intern-table generation flushes.
	TableFlushes int
	// FrontierSpills counts levels whose frontier went to a run file.
	FrontierSpills int
}

// Spilled reports whether anything left RAM.
func (s Stats) Spilled() bool { return s.SpillFiles > 0 }

// ChunkReader is per-worker scratch for Level.Chunk: a reusable read
// buffer and key-slice header array.
type ChunkReader struct {
	Scratch []byte
	Keys    [][]byte
}

// SpillFS is the filesystem a Store spills to, the only operating-system
// service state storage needs. The platform layer (internal/statestore)
// implements it with os and mmap.
type SpillFS interface {
	// MkdirTemp creates a new private directory under parent (the OS
	// temp dir when empty) and returns its path.
	MkdirTemp(parent string) (string, error)
	// Create creates the file name in dir, empty, for appending.
	Create(dir, name string) (SpillFile, error)
	// RemoveAll removes dir and everything in it.
	RemoveAll(dir string) error
}

// SpillFile is one spill file: appended to with Write, then read back
// with ReadAt (safe for concurrent use) or Map.
type SpillFile interface {
	io.Writer
	io.ReaderAt
	// Map returns the file's first size bytes read-only: a mapping, or a
	// heap copy where the platform cannot map. They stay valid until
	// Close.
	Map(size int64) ([]byte, error)
	// Close releases the file and its mapping.
	Close() error
	// Remove closes the file and deletes it.
	Remove() error
}

// Backend bundles the platform services an exploration may use. Its
// zero value is the pure configuration: states stay in RAM and
// process-level telemetry reads as unknown. The platform layer
// (internal/statestore) supplies a spill filesystem and a real RSS
// probe; core-layer code never needs either to produce correct results.
type Backend struct {
	// Spill is the filesystem a memory-budgeted exploration spills to;
	// nil means no budget can be honored.
	Spill SpillFS
	// PeakRSS reports the process's high-water resident set size in
	// bytes, or 0 where the platform cannot tell; nil means unknown.
	// Consumers must omit, not report, zero values.
	PeakRSS func() int64
}

// ProcessPeakRSS resolves the backend's RSS probe: the probed value, or
// 0 (unknown) without a probe.
func (b Backend) ProcessPeakRSS() int64 {
	if b.PeakRSS == nil {
		return 0
	}
	return b.PeakRSS()
}
