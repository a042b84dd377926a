package machine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lts"
	"repro/internal/statecodec"
)

// State-space generation: a level-synchronized BFS over one
// statecodec.Store. Every worker count, one included, and every memory
// budget runs this same loop.
//
// The frontier of each BFS level is the sequence of state keys pushed
// during the previous level's merge, served by the store either from a
// hot in-RAM buffer or from a run file (invisible to this file).
// Workers claim fixed-size chunks of the frontier (dynamic scheduling
// via an atomic cursor), expand each state with fully private scratch
// (expander, decode state, encode buffer, chunk reader), intern
// successor encodings into the store's sharded table, and append their
// transitions — in symbolic form — to a per-worker buffer. A
// single-threaded merge then walks the frontier in state order and
// assigns IDs to newly discovered states in one fixed order: frontier
// states ascending, and within a state its transitions in emission
// order (expandState). It resolves action and label IDs through one
// memoized interner in that same order, and bulk-appends each row to
// the CSR builder. After the merge the level is closed: if the store is
// over its memory budget, the closed intern-table generation spills
// through Options.Backend.Spill — at that point every entry of the
// generation carries its final ID, so the spill moves bytes, never
// decisions. With a zero budget nothing spills.
//
// Consequently the produced LTS — state numbering, transition order,
// alphabet interning, deadlock list — is the same for every worker
// count and every memory budget; only wall-clock time and memory
// residency change. The state budget is checked as the merge numbers
// each fresh state, so a level may intern past MaxStates before the
// *StateLimitError surfaces. A model fault travels through the level
// barrier the same way: each worker stops at its first faulting state,
// and the merge replays the level up to the lowest faulting frontier
// index — including the transitions that state emitted before the
// fault, which may cross the state budget first — and then returns that
// fault.

// ptrans is one worker-recorded transition: the symbolic action plus
// the successor's store reference, resolved to IDs during the merge.
// It holds no Go pointer, so worker buffers are noscan.
type ptrans struct {
	ref statecodec.Ref
	sym symTrans
}

// rowRef locates one frontier state's transitions inside a worker buffer.
type rowRef struct {
	start, end int
	worker     int32
	deadlock   bool
}

// pworker is one exploration worker: private expansion scratch plus the
// transition buffer the merge reads back.
type pworker struct {
	x     expander
	cur   *state
	buf   []byte
	trs   []ptrans
	cdc   codec
	store *statecodec.Store
	chunk statecodec.ChunkReader
	// fault is the model fault this worker hit in the current level, at
	// frontier index faultAt; the worker stops there.
	fault   error
	faultAt int
}

// newPWorker builds one worker. Its struct and every scratch object it
// writes per step sit on cache lines of their own (isolated), so no two
// workers ever write to one line.
func newPWorker(p *Program, opt Options, cdc codec, store *statecodec.Store) *pworker {
	w := isolatedNew[pworker]()
	w.x = newExpander(p, opt.Threads)
	// Every worker applies the identical pruning rule inside
	// expandState, so reduction keeps the LTS byte-identical across
	// worker counts.
	w.x.red = opt.Reduction
	w.x.key = cdc.keyBuf(p, opt.Threads)
	w.buf = cdc.keyBuf(p, opt.Threads)
	w.cur = newScratchState(p, opt.Threads)
	w.cdc, w.store = cdc, store
	return w
}

// emit implements transSink: key the successor, intern it into the
// shared store, and buffer the transition.
func (w *pworker) emit(x *expander, tr symTrans) {
	w.buf = x.successorKey(w.buf[:0], w.cdc)
	w.trs = append(w.trs, ptrans{ref: w.store.Intern(w.buf), sym: tr})
}

// frontierChunk is how many frontier states a worker claims at a time:
// large enough to amortize the atomic cursor (and, for spilled levels,
// the ReadAt round trip), small enough to balance uneven expansion
// costs.
const frontierChunk = 64

func explore(ctx context.Context, p *Program, opt Options, cdc codec, acts, labels *lts.Alphabet, limit, workers int) (*lts.LTS, *Info, error) {
	csr, numStates, info, err := exploreLevels(ctx, p, opt, cdc, acts, labels, limit, workers)
	if err != nil {
		return nil, nil, err
	}
	// The store is closed and unreachable by now, so a collection that
	// starts while Build copies the edges does not count its tables as
	// live.
	return csr.Build(numStates, 0), info, nil
}

// exploreLevels runs the BFS and returns the CSR rows of every state
// and the number of states.
func exploreLevels(ctx context.Context, p *Program, opt Options, cdc codec, acts, labels *lts.Alphabet, limit, workers int) (*lts.CSRBuilder, int, *Info, error) {
	startTime := time.Now()
	store := statecodec.NewStore(statecodec.Config{MemBudget: opt.MemBudget, Dir: opt.SpillDir}, opt.Backend.Spill)
	// Spill files and mmap regions are released on every exit path —
	// success, cancellation, state-limit abort, I/O error.
	defer store.Close()
	ai := newActionInterner(p, acts, labels)

	// Intern the initial state as state 0 and seed the first frontier.
	key, err := initialKey(p, opt, cdc)
	if err != nil {
		return nil, 0, nil, err
	}
	_, _, key = store.Number(store.Intern(key), 0)
	numStates := 1
	if err := store.PushFrontier(key); err != nil {
		return nil, 0, nil, err
	}

	ws := make([]*pworker, workers)
	for i := range ws {
		ws[i] = newPWorker(p, opt, cdc, store)
	}

	info := &Info{}
	csr := lts.NewCSRBuilder(acts, labels)
	var row []lts.Transition
	var rows []rowRef
	base := 0 // ID of the first state of the current level
	for {
		lvl, err := store.NextLevel()
		if err != nil {
			return nil, 0, nil, err
		}
		n := lvl.Len()
		if n == 0 {
			break
		}
		// The merge reads only rows the expand phase wrote in this level
		// (it stops at the lowest fault), so rows are reused uncleared.
		if cap(rows) < n {
			rows = make([]rowRef, n)
		}
		rows = rows[:n]

		// Expand phase: workers claim chunks until the frontier is drained.
		nw := workers
		if maxUseful := (n + frontierChunk - 1) / frontierChunk; nw > maxUseful {
			nw = maxUseful
		}
		readErrs := make([]error, nw)
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for wi := 0; wi < nw; wi++ {
			w := ws[wi]
			w.trs = w.trs[:0]
			w.fault = nil
			wg.Add(1)
			go func(windex int32, w *pworker) {
				defer wg.Done()
				for {
					// Poll the context once per claimed chunk so an
					// abandoned job stops burning cores within ~64
					// state expansions per worker.
					if ctx.Err() != nil {
						return
					}
					start := int(cursor.Add(frontierChunk)) - frontierChunk
					if start >= n {
						return
					}
					end := start + frontierChunk
					if end > n {
						end = n
					}
					keys, err := lvl.Chunk(start, end, &w.chunk)
					if err != nil {
						readErrs[windex] = err
						return
					}
					for i, key := range keys {
						w.cdc.decode(key, w.cur)
						t0 := len(w.trs)
						cnt, err := w.x.expand(w.cur, key, w)
						rows[start+i] = rowRef{
							start:    t0,
							end:      len(w.trs),
							worker:   windex,
							deadlock: cnt == 0 && !allDone(w.cur),
						}
						if err != nil {
							w.fault, w.faultAt = err, start+i
							return
						}
					}
				}
			}(int32(wi), w)
		}
		wg.Wait()
		if ctx.Err() != nil {
			return nil, 0, nil, canceled(ctx, p.Name)
		}
		for _, e := range readErrs {
			if e != nil {
				return nil, 0, nil, fmt.Errorf("machine: %s: frontier read: %w", p.Name, e)
			}
		}

		// Every row below the lowest faulting index was expanded: a worker
		// only stops early at its own fault, and claims chunks in order.
		faultAt := n
		var fault error
		total := 0
		for _, w := range ws[:nw] {
			total += len(w.trs)
			if w.fault != nil && w.faultAt < faultAt {
				fault, faultAt = w.fault, w.faultAt
			}
		}

		// Merge phase: deterministic ID assignment and bulk CSR emission.
		csr.Reserve(n, total)
		for i := range rows {
			if i&cancelCheckMask == 0 && ctx.Err() != nil {
				return nil, 0, nil, canceled(ctx, p.Name)
			}
			r := &rows[i]
			trs := ws[r.worker].trs[r.start:r.end]
			row = row[:0]
			for _, tr := range trs {
				dst := tr.ref.ID
				if dst < 0 {
					id, fresh, key := store.Number(tr.ref, int32(numStates))
					dst = id
					if fresh {
						// The state budget counts interned states; whether
						// earlier states are resident or spilled is
						// irrelevant to the limit.
						if numStates >= limit {
							return nil, 0, nil, &StateLimitError{Program: p.Name, Limit: limit}
						}
						numStates++
						if err := store.PushFrontier(key); err != nil {
							return nil, 0, nil, err
						}
					}
				}
				act, lbl := ai.resolve(tr.sym)
				row = append(row, lts.Transition{Action: act, Label: lbl, Dst: dst})
			}
			if err := csr.EmitRow(int32(base+i), row); err != nil {
				return nil, 0, nil, err
			}
			if i == faultAt {
				return nil, 0, nil, fault
			}
			if r.deadlock {
				info.Deadlocks = append(info.Deadlocks, int32(base+i))
			}
		}
		base += n
		if err := store.EndLevel(); err != nil {
			return nil, 0, nil, err
		}
	}

	st := store.Stats()
	// Each state is expanded by exactly one worker, so the per-worker
	// counters sum to the deterministic totals.
	var pruned, skipped, patched int64
	for _, w := range ws {
		pruned += w.x.pruned
		skipped += w.x.canonSkipped
		patched += w.x.keyPatched
	}
	info.Stats = ExploreStats{
		States:            numStates,
		EncodedBytes:      st.InternedBytes,
		PeakResidentBytes: st.PeakResidentBytes,
		PeakRSSBytes:      opt.Backend.ProcessPeakRSS(),
		SpillFiles:        st.SpillFiles,
		TableFlushes:      st.TableFlushes,
		FrontierSpills:    st.FrontierSpills,
		PrunedStates:      pruned,
		CanonSkipped:      skipped,
		KeyPatched:        patched,
		Elapsed:           time.Since(startTime),
	}
	return csr, numStates, info, nil
}
