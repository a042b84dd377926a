package lts

import (
	"fmt"
	"sort"
	"sync"
)

// LabelID identifies an interned diagnostic label (e.g. "t1.L28") attached
// to a transition. Labels never influence any equivalence; they only make
// counterexamples readable.
type LabelID int32

// NoLabel marks a transition without a diagnostic label.
const NoLabel LabelID = -1

// Transition is one outgoing edge of a state.
type Transition struct {
	Action ActionID
	Label  LabelID
	Dst    int32
}

// LTS is an immutable labeled transition system with states 0..NumStates-1
// and transitions stored in compressed sparse rows, grouped by source state.
type LTS struct {
	// Acts interns the action names used by this system. Systems that are
	// compared with each other must share one Alphabet.
	Acts *Alphabet
	// Labels interns diagnostic transition labels; may be shared too.
	Labels *Alphabet
	// Init is the initial state.
	Init int32

	numStates int
	offsets   []int32
	edges     []Transition

	// sccOnce guards scc, the memoized τ-SCC decomposition (TauSCCs).
	sccOnce sync.Once
	scc     *TauSCC
}

// NumStates returns the number of states.
func (l *LTS) NumStates() int { return l.numStates }

// NumTransitions returns the number of transitions.
func (l *LTS) NumTransitions() int { return len(l.edges) }

// Succ returns the outgoing transitions of state s. The returned slice
// aliases internal storage and must not be modified.
func (l *LTS) Succ(s int32) []Transition {
	return l.edges[l.offsets[s]:l.offsets[s+1]]
}

// LabelName renders a transition label, or "" when the transition carries
// none or the LTS has no label table.
func (l *LTS) LabelName(id LabelID) string {
	if id == NoLabel || l.Labels == nil {
		return ""
	}
	return l.Labels.Name(ActionID(id))
}

// Builder constructs an LTS incrementally. Edges may be added in any
// order; Build groups them by source state.
type Builder struct {
	acts   *Alphabet
	labels *Alphabet
	init   int32
	n      int
	edges  []edge
}

type edge struct {
	src int32
	tr  Transition
}

// NewBuilder returns a builder for an LTS over the given alphabet. A nil
// alphabet allocates a fresh one.
func NewBuilder(acts *Alphabet) *Builder {
	if acts == nil {
		acts = NewAlphabet()
	}
	return &Builder{acts: acts}
}

// SetLabels attaches a diagnostic label table.
func (b *Builder) SetLabels(labels *Alphabet) { b.labels = labels }

// SetInit sets the initial state, growing the state count if needed.
func (b *Builder) SetInit(s int) {
	b.init = int32(s)
	b.need(s)
}

// AddStates ensures the LTS has at least n states.
func (b *Builder) AddStates(n int) { b.need(n - 1) }

func (b *Builder) need(s int) {
	if s >= b.n {
		b.n = s + 1
	}
}

// Add records a transition src --act--> dst using an interned action name.
func (b *Builder) Add(src int, act string, dst int) {
	b.AddID(src, b.acts.ID(act), dst)
}

// AddID records a transition with a pre-interned action.
func (b *Builder) AddID(src int, act ActionID, dst int) {
	b.AddFull(src, act, NoLabel, dst)
}

// AddFull records a transition with a diagnostic label.
func (b *Builder) AddFull(src int, act ActionID, label LabelID, dst int) {
	b.need(src)
	b.need(dst)
	b.edges = append(b.edges, edge{src: int32(src), tr: Transition{Action: act, Label: label, Dst: int32(dst)}})
}

// Build finalizes the LTS. The builder must not be reused afterwards.
func (b *Builder) Build() *LTS {
	if b.n == 0 {
		b.n = 1 // at least the initial state
	}
	sort.SliceStable(b.edges, func(i, j int) bool { return b.edges[i].src < b.edges[j].src })
	l := &LTS{
		Acts:      b.acts,
		Labels:    b.labels,
		Init:      b.init,
		numStates: b.n,
		offsets:   make([]int32, b.n+1),
		edges:     make([]Transition, len(b.edges)),
	}
	for i, e := range b.edges {
		l.offsets[e.src+1]++
		l.edges[i] = e.tr
	}
	for s := 0; s < b.n; s++ {
		l.offsets[s+1] += l.offsets[s]
	}
	return l
}

// CSRBuilder constructs an LTS whose transitions arrive already grouped by
// source state in increasing order, avoiding the sorting pass of Builder.
// This is the natural order produced by breadth-first state-space
// exploration.
//
// The transitions fill segments. A small system stays in one slice,
// grown as a slice grows; once a slice holds csrSegment transitions it is
// never copied to grow: it is sealed, and a new one takes the next rows.
// Build copies the sealed segments once into the LTS's edge array.
// Growing one large slice instead would keep the old array reachable
// while the new one is allocated, and a collection that starts then
// counts both as live, so the heap's peak would depend on when the
// collector ran.
type CSRBuilder struct {
	acts    *Alphabet
	labels  *Alphabet
	init    int32
	offsets []int32
	sealed  [][]Transition // full segments, in order
	nsealed int            // transitions in sealed
	edges   []Transition   // the segment being filled
	cur     int32
}

// csrSegment is the capacity, in transitions (768 KiB), from which a
// CSRBuilder slice is sealed instead of grown.
const csrSegment = 1 << 16

// NewCSRBuilder returns a CSR builder over the given alphabets.
func NewCSRBuilder(acts, labels *Alphabet) *CSRBuilder {
	if acts == nil {
		acts = NewAlphabet()
	}
	return &CSRBuilder{acts: acts, labels: labels, cur: -1, offsets: []int32{0}}
}

// numEdges is the number of transitions emitted so far.
func (b *CSRBuilder) numEdges() int32 { return int32(b.nsealed + len(b.edges)) }

// BeginState starts emitting the transitions of state s. States must be
// begun in strictly increasing order starting at 0.
func (b *CSRBuilder) BeginState(s int32) error {
	if s != b.cur+1 {
		return fmt.Errorf("lts: BeginState(%d) out of order, expected %d", s, b.cur+1)
	}
	b.cur = s
	b.offsets = append(b.offsets, b.numEdges())
	return nil
}

// Emit adds a transition from the current state.
func (b *CSRBuilder) Emit(act ActionID, label LabelID, dst int32) {
	if len(b.edges) == cap(b.edges) {
		b.seal(1, len(b.row()))
	}
	b.edges = append(b.edges, Transition{Action: act, Label: label, Dst: dst})
	b.offsets[len(b.offsets)-1] = b.numEdges()
}

// row is what Emit has added to the current state's row so far.
func (b *CSRBuilder) row() []Transition {
	return b.edges[int(b.offsets[len(b.offsets)-2])-b.nsealed:]
}

// seal starts a new segment when k more transitions do not fit in the
// one being filled and that one has reached csrSegment; a smaller one is
// left to grow. The last carry transitions, the row in progress, move to
// the new segment: a row never spans two segments.
func (b *CSRBuilder) seal(k, carry int) {
	if len(b.edges)+k <= cap(b.edges) || cap(b.edges) < csrSegment {
		return
	}
	n := len(b.edges) - carry
	seg := make([]Transition, carry, max(carry+k, csrSegment))
	copy(seg, b.edges[n:])
	b.sealed = append(b.sealed, b.edges[:n])
	b.nsealed += n
	b.edges = seg
}

// Reserve grows the builder's capacity for at least states more states
// and edges more transitions, so a bulk merge appends without regrowing.
// A growth takes each capacity to max(need, 2·cap), so a merge that
// reserves level by level copies every transition O(1) times amortized,
// not once per level; Build trims the unused tail. The edges grow only
// up to csrSegment: past it, EmitRow seals the segment when a row does
// not fit.
func (b *CSRBuilder) Reserve(states, edges int) {
	if need := len(b.offsets) + states; need > cap(b.offsets) {
		b.offsets = append(make([]int32, 0, max(need, 2*cap(b.offsets))), b.offsets...)
	}
	if need := len(b.edges) + edges; need > cap(b.edges) && cap(b.edges) < csrSegment {
		b.edges = append(make([]Transition, 0, max(need, min(2*cap(b.edges), csrSegment))), b.edges...)
	}
}

// EmitRow appends every transition of state s in one call — the bulk
// emission path used by the parallel explorer's merge. Like BeginState,
// rows must arrive in strictly increasing state order starting at 0; an
// EmitRow with an empty row records a state without transitions.
func (b *CSRBuilder) EmitRow(s int32, row []Transition) error {
	if s != b.cur+1 {
		return fmt.Errorf("lts: EmitRow(%d) out of order, expected %d", s, b.cur+1)
	}
	b.cur = s
	b.seal(len(row), 0)
	b.edges = append(b.edges, row...)
	b.offsets = append(b.offsets, b.numEdges())
	return nil
}

// Build finalizes the LTS with the given total number of states; states
// beyond the last BeginState have no outgoing transitions.
func (b *CSRBuilder) Build(numStates int, init int32) *LTS {
	for int(b.cur) < numStates-1 {
		b.cur++
		b.offsets = append(b.offsets, b.numEdges())
	}
	edges := b.edges
	if len(b.sealed) > 0 {
		edges = make([]Transition, 0, b.numEdges())
		for _, seg := range b.sealed {
			edges = append(edges, seg...)
		}
		edges = append(edges, b.edges...)
	} else if 4*cap(edges) > 5*len(edges) {
		// Trim a tail over a fifth of the capacity, as Reserve's doubling
		// or append's growth (Emit, e.g. Lift's quotient) can leave: it is
		// zeroed, so resident, for as long as the LTS lives.
		edges = append([]Transition(nil), edges...)
	}
	b.sealed, b.edges = nil, nil
	return &LTS{
		Acts:      b.acts,
		Labels:    b.labels,
		Init:      init,
		numStates: numStates,
		offsets:   b.offsets,
		edges:     edges,
	}
}

// DisjointUnion combines two systems over the same alphabet into one LTS
// whose states 0..a.NumStates()-1 are a's and whose remaining states are
// b's shifted by a.NumStates(). The union's Init is a's initial state; b's
// shifted initial state is returned separately.
func DisjointUnion(a, b *LTS) (union *LTS, initB int32, err error) {
	if a.Acts != b.Acts {
		return nil, 0, fmt.Errorf("lts: disjoint union requires a shared alphabet")
	}
	shift := int32(a.numStates)
	n := a.numStates + b.numStates
	offsets := make([]int32, n+1)
	copy(offsets, a.offsets)
	ea := int32(len(a.edges))
	for i := 1; i <= b.numStates; i++ {
		offsets[a.numStates+i] = ea + b.offsets[i]
	}
	edges := make([]Transition, 0, len(a.edges)+len(b.edges))
	edges = append(edges, a.edges...)
	for _, t := range b.edges {
		t.Dst += shift
		edges = append(edges, t)
	}
	return &LTS{
		Acts:      a.Acts,
		Labels:    a.Labels,
		Init:      a.Init,
		numStates: n,
		offsets:   offsets,
		edges:     edges,
	}, b.Init + shift, nil
}

// VisibleActions returns the set of non-τ action IDs that occur on some
// transition, in increasing order.
func (l *LTS) VisibleActions() []ActionID {
	seen := make([]bool, l.Acts.Len())
	for _, t := range l.edges {
		seen[t.Action] = true
	}
	var out []ActionID
	for id, ok := range seen {
		if ok && !IsTau(ActionID(id)) {
			out = append(out, ActionID(id))
		}
	}
	return out
}

// CountTau returns the number of τ transitions.
func (l *LTS) CountTau() int {
	n := 0
	for _, t := range l.edges {
		if IsTau(t.Action) {
			n++
		}
	}
	return n
}
