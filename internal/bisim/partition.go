// Package bisim implements the equivalence checking engine of the
// verification framework: strong bisimulation, branching bisimulation
// (van Glabbeek–Weijland), divergence-sensitive branching bisimulation and
// weak bisimulation (Milner), plus quotient construction (Definition 5.1
// of the paper) and distinguishing experiments. Strong and weak
// bisimulation use signature-based partition refinement; both branching
// kinds use one splitting-tree refiner (splitter.go), whose split history
// also yields the distinguishing experiments.
//
// Branching bisimulation is computed after collapsing τ-SCCs, which is
// sound because all states on a τ-cycle are branching bisimilar
// (Lemma 5.6). The collapse leaves a τ-DAG on which inert-τ signature
// propagation is a single reverse-topological sweep per refinement round.
//
// Divergence-sensitive branching bisimulation (Definitions 5.4/5.5) is
// reduced to plain branching bisimulation by the standard construction:
// after the τ-SCC collapse, every state that came from a τ-cycle is given
// a fresh visible self-loop δ. In a finite system an infinite τ-path must
// enter a τ-cycle, so divergence is exactly reachability of a divergent
// SCC, and the δ loops make the refinement divergence-aware.
package bisim

import (
	"bytes"
	"context"
	"encoding/binary"
	"slices"

	"repro/internal/lts"
)

// Partition assigns each state of an LTS to an equivalence block.
type Partition struct {
	// BlockOf maps states to dense block IDs in [0, Num).
	BlockOf []int32
	// Num is the number of blocks.
	Num int
	// Rounds is the number of refinement rounds the fixpoint took
	// (including the final round that confirmed stability).
	Rounds int
}

// SameBlock reports whether two states are equivalent under the partition.
func (p *Partition) SameBlock(a, b int32) bool { return p.BlockOf[a] == p.BlockOf[b] }

// uniform returns the single-block partition over n states.
func uniform(n int) *Partition {
	return &Partition{BlockOf: make([]int32, n), Num: 1}
}

// sigTable groups states by (current block, signature) to form the next
// partition. Signatures are encoded as sorted, deduplicated uint64 pairs
// (action<<32 | targetBlock). Keys are interned in an FNV-hashed bucket
// map whose byte buffers are recycled across refinement rounds, so a
// refinement run allocates key storage only while the table is growing
// past its high-water mark — not once per newly discovered block per
// round, as a map[string]int32 rebuild would.
type sigTable struct {
	buckets   map[uint64][]sigEntry
	n         int32
	buf       []byte
	free      [][]byte // key buffers recycled by reset for reuse
	freeBytes int      // total capacity of the buffers in free
}

// Bounds on the storage reset keeps alive for reuse, so one huge round
// does not pin its peak key storage and bucket map for every later round
// (and, through long-lived tables, for the rest of a process).
const (
	// maxFreeKeyBytes caps the recycled key-buffer bytes surviving a
	// reset; buffers beyond the cap are dropped for the GC.
	maxFreeKeyBytes = 1 << 20
	// bucketShrinkSlack is how many map entries beyond the last round's
	// block count reset tolerates before rebuilding the bucket map (Go
	// maps never shrink on their own).
	bucketShrinkSlack = 1 << 10
)

type sigEntry struct {
	key []byte
	id  int32
}

func newSigTable(capacity int) *sigTable {
	return &sigTable{buckets: make(map[uint64][]sigEntry, capacity)}
}

// fnv64a hashes b with 64-bit FNV-1a.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// blockFor returns the next-round block ID for a state with the given
// current block and signature. sig must be sorted and deduplicated.
func (t *sigTable) blockFor(curBlock int32, sig []uint64) int32 {
	t.buf = t.buf[:0]
	t.buf = binary.LittleEndian.AppendUint32(t.buf, uint32(curBlock))
	for _, p := range sig {
		t.buf = binary.LittleEndian.AppendUint64(t.buf, p)
	}
	h := fnv64a(t.buf)
	for _, e := range t.buckets[h] {
		if bytes.Equal(e.key, t.buf) {
			return e.id
		}
	}
	id := t.n
	t.n++
	var key []byte
	if n := len(t.free); n > 0 {
		recycled := t.free[n-1]
		t.free = t.free[:n-1]
		t.freeBytes -= cap(recycled)
		key = append(recycled[:0], t.buf...)
	} else {
		key = append([]byte(nil), t.buf...)
	}
	t.buckets[h] = append(t.buckets[h], sigEntry{key: key, id: id})
	return id
}

// len is the number of distinct blocks interned since the last reset.
func (t *sigTable) len() int { return int(t.n) }

// reset empties the table for the next round, keeping bucket slices and
// key buffers for reuse — but only up to the maxFreeKeyBytes /
// bucketShrinkSlack bounds, so a one-off huge round cannot pin its peak
// storage forever.
func (t *sigTable) reset() {
	if len(t.buckets) > 2*int(t.n)+bucketShrinkSlack {
		// Far more distinct hashes than the last round had blocks: the
		// map is a leftover from a much bigger round. Rebuild it at the
		// size actually needed and drop the recycled buffers with it.
		t.buckets = make(map[uint64][]sigEntry, t.n)
		t.free = nil
		t.freeBytes = 0
		t.n = 0
		return
	}
	for h, bucket := range t.buckets {
		for i := range bucket {
			if c := cap(bucket[i].key); t.freeBytes+c <= maxFreeKeyBytes {
				t.free = append(t.free, bucket[i].key)
				t.freeBytes += c
			}
		}
		t.buckets[h] = bucket[:0]
	}
	t.n = 0
}

func sigPair(a lts.ActionID, block int32) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(block))
}

// sortDedup sorts sig and removes duplicates in place.
func sortDedup(sig []uint64) []uint64 {
	if len(sig) < 2 {
		return sig
	}
	slices.Sort(sig)
	out := sig[:1]
	for _, v := range sig[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// StrongContext computes the strong bisimulation partition of l: τ is
// treated as an ordinary action. The refinement loop polls ctx once per
// round and returns a *CanceledError when it is done.
func StrongContext(ctx context.Context, l *lts.LTS) (*Partition, error) {
	n := l.NumStates()
	p := uniform(n)
	table := newSigTable(n)
	var sig []uint64
	for rounds := 1; ; rounds++ {
		if err := checkCtx(ctx, "strong refinement"); err != nil {
			return nil, err
		}
		table.reset()
		next := make([]int32, n)
		for s := 0; s < n; s++ {
			sig = sig[:0]
			for _, tr := range l.Succ(int32(s)) {
				sig = append(sig, sigPair(tr.Action, p.BlockOf[tr.Dst]))
			}
			sig = sortDedup(sig)
			next[s] = table.blockFor(p.BlockOf[s], sig)
		}
		num := table.len()
		if num == p.Num {
			p.Rounds = rounds
			return p, nil
		}
		p = &Partition{BlockOf: next, Num: num}
	}
}
