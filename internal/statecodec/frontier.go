package statecodec

import (
	"bufio"
	"fmt"
)

// The frontier is a two-queue structure: each BFS level under
// construction accumulates either in a hot in-RAM buffer or, once the
// store crosses its memory budget, in a cold run file. Levels are
// written once (by the single-threaded merge, in discovery order) and
// read once (by the expansion workers of the next level, in contiguous
// chunks via ReadAt, which is safe concurrently); a consumed run file
// is deleted immediately. Whether a level was hot or cold is invisible
// to the explorer: keys come back in exactly the order they were
// pushed, so state numbering never depends on the budget.

// spillWriter is a plain buffered writer that latches the first error,
// so per-key write calls stay unchecked in the hot path.
type spillWriter struct {
	w   *bufio.Writer
	err error
}

// reset points the writer at f, allocating its 1 MiB buffer on first
// use only.
func (s *spillWriter) reset(f SpillFile) {
	if s.w == nil {
		s.w = bufio.NewWriterSize(f, 1<<20)
	} else {
		s.w.Reset(f)
	}
	s.err = nil
}

func (s *spillWriter) write(b []byte) {
	if s.err == nil {
		_, s.err = s.w.Write(b)
	}
}

func (s *spillWriter) flush() error {
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// Level is one BFS frontier level: key bytes back to back in buf (hot)
// or in the run file f (cold), with cumulative end offsets, one per key.
// A sealed level is readable in chunks.
type Level struct {
	offs []int64
	buf  []byte
	f    SpillFile
}

// Len is the number of states in the level.
func (l *Level) Len() int { return len(l.offs) }

// size is the level's total key bytes.
func (l *Level) size() int64 {
	if len(l.offs) == 0 {
		return 0
	}
	return l.offs[len(l.offs)-1]
}

// PushFrontier appends one state key to the level under construction.
// Single-threaded (merge only).
func (s *Store) PushFrontier(key []byte) error {
	b := s.next
	if b.f == nil && s.overBudget() {
		if err := s.spillFrontier(); err != nil {
			return err
		}
	}
	if b.f != nil {
		s.runW.write(key)
	} else {
		b.buf = append(b.buf, key...)
	}
	b.offs = append(b.offs, b.size()+int64(len(key)))
	return nil
}

// spillFrontier converts the level under construction from hot to cold:
// the bytes accumulated so far seed a new run file, and subsequent
// pushes append to it. Offsets recorded so far stay valid — the file
// starts with exactly the hot buffer's contents.
func (s *Store) spillFrontier() error {
	f, err := s.newSpillFile("frontier")
	if err != nil {
		return err
	}
	b := s.next
	s.runW.reset(f)
	s.runW.write(b.buf)
	if err := s.runW.flush(); err != nil {
		f.Close()
		return fmt.Errorf("statecodec: spill frontier: %w", err)
	}
	b.buf, b.f = nil, f
	s.stats.FrontierSpills++
	return nil
}

// Chunk returns the encoded keys of states [start, end) of the level.
// The returned slices alias the reader's scratch (cold level) or the
// level buffer (hot level) and are valid until the next Chunk call on
// the same reader. Safe for concurrent use with distinct readers.
func (l *Level) Chunk(start, end int, cr *ChunkReader) ([][]byte, error) {
	var base int64
	if start > 0 {
		base = l.offs[start-1]
	}
	tot := l.offs[end-1] - base
	var src []byte
	if l.f != nil {
		if int64(cap(cr.Scratch)) < tot {
			cr.Scratch = make([]byte, tot)
		}
		src = cr.Scratch[:tot]
		if _, err := l.f.ReadAt(src, base); err != nil {
			return nil, err
		}
	} else {
		src = l.buf[base : base+tot]
	}
	cr.Keys = cr.Keys[:0]
	prev := int64(0)
	for i := start; i < end; i++ {
		e := l.offs[i] - base
		cr.Keys = append(cr.Keys, src[prev:e])
		prev = e
	}
	return cr.Keys, nil
}

// NextLevel seals the level under construction for reading and releases
// the previously returned level, deleting its run file; its buffers
// carry the next level. Single-threaded (explorer loop only). The
// interns of the new level may grow the hot tables.
func (s *Store) NextLevel() (*Level, error) {
	old := s.cur
	if old.f != nil {
		f := old.f
		old.f = nil
		if err := f.Remove(); err != nil {
			return nil, err
		}
	}
	if s.next.f != nil {
		if err := s.runW.flush(); err != nil {
			return nil, fmt.Errorf("statecodec: finish frontier run: %w", err)
		}
	}
	s.cur = s.next
	s.next = &Level{offs: old.offs[:0], buf: old.buf[:0]}
	s.tablesKnown = false
	return s.cur, nil
}
