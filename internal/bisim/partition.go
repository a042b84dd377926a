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
	"context"
	"encoding/binary"
	"slices"

	"repro/internal/lts"
	"repro/internal/statecodec"
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

// sigIntern numbers signatures — sorted, deduplicated uint64 words,
// each an (action<<32 | block) pair — densely in first-occurrence order.
// Keys live in a pointer-free statecodec.Table, the one behind every
// state store, as their little-endian bytes; hashWords supplies the
// table's hash. Strong and weak refinement start a fresh one per round;
// the splitter keeps one for the whole run (sigStore).
type sigIntern struct {
	tab statecodec.Table
	buf []byte // scratch for the key bytes
}

// hashWords hashes a signature word by word, mixing every word into the
// high 32 bits the table uses as its tag.
func hashWords(ws []uint64) uint64 {
	h := uint64(len(ws))
	for _, w := range ws {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h * 0xbf58476d1ce4e5b9
}

// intern returns ws's ID, appending it on first sight.
func (t *sigIntern) intern(ws []uint64) int32 {
	t.buf = t.buf[:0]
	for _, w := range ws {
		t.buf = binary.LittleEndian.AppendUint64(t.buf, w)
	}
	id, _ := t.tab.Intern(hashWords(ws), t.buf)
	return id
}

// appendWords appends the words of signature id to dst.
func (t *sigIntern) appendWords(dst []uint64, id int32) []uint64 {
	for k := t.tab.Key(id); len(k) > 0; k = k[8:] {
		dst = append(dst, binary.LittleEndian.Uint64(k))
	}
	return dst
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

// blockKey finishes a (block, signature) key for strong and weak
// refinement: key[0] is the state's current block and key[1:] its
// signature pairs, which blockKey sorts and deduplicates in place.
func blockKey(key []uint64) []uint64 {
	return key[:1+len(sortDedup(key[1:]))]
}

// StrongContext computes the strong bisimulation partition of l: τ is
// treated as an ordinary action. The refinement loop polls ctx once per
// round and returns a *CanceledError when it is done.
func StrongContext(ctx context.Context, l *lts.LTS) (*Partition, error) {
	n := l.NumStates()
	p := uniform(n)
	var key []uint64
	for rounds := 1; ; rounds++ {
		if err := checkCtx(ctx, "strong refinement"); err != nil {
			return nil, err
		}
		var table sigIntern
		next := make([]int32, n)
		for s := 0; s < n; s++ {
			key = append(key[:0], uint64(p.BlockOf[s]))
			for _, tr := range l.Succ(int32(s)) {
				key = append(key, sigPair(tr.Action, p.BlockOf[tr.Dst]))
			}
			next[s] = table.intern(blockKey(key))
		}
		num := table.tab.Len()
		if num == p.Num {
			p.Rounds = rounds
			return p, nil
		}
		p = &Partition{BlockOf: next, Num: num}
	}
}
