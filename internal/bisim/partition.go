// Package bisim implements the equivalence checking engine of the
// verification framework: strong bisimulation, branching bisimulation
// (van Glabbeek–Weijland), divergence-sensitive branching bisimulation and
// weak bisimulation (Milner), plus quotient construction (Definition 5.1
// of the paper) and distinguishing experiments. All five kinds run on one
// splitting-tree refiner (splitter.go), whose split history also yields
// the distinguishing experiments.
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
//
// Strong, weak and divergence-sensitive weak bisimulation are the
// splitter's refinement of a system without τ edges: strong runs on a
// copy whose τ is the reserved visible action τ̂, and the weak kinds run
// on the τ-saturation of the branching quotient (weak.go).
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

// sigIntern numbers signatures — sorted, deduplicated uint64 words,
// each an (action<<32 | block) pair — densely in first-occurrence order.
// Keys live in a pointer-free statecodec.Table, the one behind every
// state store, as their little-endian bytes; hashWords supplies the
// table's hash. The splitter keeps one for the whole run (sigStore).
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

// strong computes the strong bisimulation partition of l: τ is an
// ordinary action. The splitter refines the copy of l in which τ is the
// visible τ̂: no step of the copy is inert, so its signatures are the
// strong ones and its level-synchronized rounds those of naive signature
// refinement.
func strong(ctx context.Context, l *lts.LTS) (*Partition, error) {
	checkReservedActions(l.Acts.Len())
	n := l.NumStates()
	b := lts.NewCSRBuilder(l.Acts, nil)
	b.Reserve(n, l.NumTransitions())
	var row []lts.Transition
	for s := range int32(n) {
		row = append(row[:0], l.Succ(s)...)
		for i := range row {
			if lts.IsTau(row[i].Action) {
				row[i].Action = tauHat
			}
		}
		b.EmitRow(s, row) // rows arrive in increasing order, so it cannot fail
	}
	p, _, err := splitterOnDAG(ctx, b.Build(n, l.Init), make([]bool, n))
	return p, err
}
