package machine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// statesEqual compares two decoded states field by field.
func statesEqual(a, b *state) bool {
	if len(a.g.Vars) != len(b.g.Vars) || len(a.g.Heap) != len(b.g.Heap) || len(a.th) != len(b.th) {
		return false
	}
	for i := range a.g.Vars {
		if a.g.Vars[i] != b.g.Vars[i] {
			return false
		}
	}
	for i := range a.g.Heap {
		if a.g.Heap[i] != b.g.Heap[i] {
			return false
		}
	}
	for i := range a.th {
		x, y := a.th[i], b.th[i]
		if x.status != y.status || x.method != y.method || x.arg != y.arg ||
			x.pc != y.pc || x.ret != y.ret || x.ops != y.ops {
			return false
		}
		for li := range x.locals {
			if x.locals[li] != y.locals[li] {
				return false
			}
		}
	}
	return true
}

// TestPackedCodecRoundTrip drives 500 random canonical states per
// example program through the codec and checks four properties:
// decode(encode(s)) == s, re-encoding the decode reproduces the same
// bytes (determinism), packed keys collide exactly when the
// range-unlimited pilot keys do (injectivity, so state identity is
// layout-independent), and the pilot key decodes back to s.
func TestPackedCodecRoundTrip(t *testing.T) {
	programs := []*Program{
		quickProgram(3, 2, []VarKind{KVal, KPtr, KTagged}),
		quickProgram(1, 0, []VarKind{KVal}),
		quickProgram(4, 3, []VarKind{KPtr, KTagged, KVal, KPtr}),
		counterProgram(),
		bigProgram(),
	}
	const heapCap = 6
	for pi, p := range programs {
		p := p
		p.HeapCap = heapCap
		t.Run(fmt.Sprintf("%s-%d", p.Name, pi), func(t *testing.T) {
			cdc := newCodec(p, Options{Threads: 2, Ops: 2})
			rng := rand.New(rand.NewSource(int64(pi) + 1))
			can := newCanonicalizer(p, heapCap+1)
			p2r := map[string]string{} // packed key -> raw key
			r2p := map[string]string{} // raw key -> packed key
			for trial := 0; trial < 500; trial++ {
				st := randomState(rng, p, heapCap)
				can.run(st)
				packed := append([]byte(nil), cdc.encode(nil, st)...)
				raw := string(appendPilotKey(nil, st))
				got := &state{
					g:  &Global{Vars: make([]int32, len(p.Globals.Kinds)), Heap: make([]Node, heapCap+1)},
					th: []thread{{locals: make([]int32, p.NLocals)}},
				}
				cdc.decode(packed, got)
				if !statesEqual(st, got) {
					t.Fatalf("trial %d: decode(encode(s)) != s", trial)
				}
				back := &state{
					g:  &Global{Vars: make([]int32, len(p.Globals.Kinds)), Heap: make([]Node, heapCap+1)},
					th: []thread{{locals: make([]int32, p.NLocals)}},
				}
				decodePilotKey([]byte(raw), back)
				if !statesEqual(st, back) || back.hw != st.hw {
					t.Fatalf("trial %d: decodePilotKey(appendPilotKey(s)) != s", trial)
				}
				if again := cdc.encode(nil, got); !bytes.Equal(again, packed) {
					t.Fatalf("trial %d: re-encode differs: %x vs %x", trial, again, packed)
				}
				if prev, ok := p2r[string(packed)]; ok && prev != raw {
					t.Fatalf("trial %d: one packed key maps to two raw keys", trial)
				}
				p2r[string(packed)] = raw
				if prev, ok := r2p[raw]; ok && prev != string(packed) {
					t.Fatalf("trial %d: one raw key maps to two packed keys", trial)
				}
				r2p[raw] = string(packed)
			}
		})
	}
}

// TestPackedSmallerThanLegacy pins the point of the packed codec: on the
// property-test schema its keys are strictly smaller than one byte per
// state-vector slot, the footprint of a byte-per-slot encoding.
func TestPackedSmallerThanLegacy(t *testing.T) {
	p := quickProgram(3, 2, []VarKind{KVal, KPtr, KTagged})
	p.HeapCap = 6
	cdc := newCodec(p, Options{Threads: 2, Ops: 2})
	rng := rand.New(rand.NewSource(7))
	can := newCanonicalizer(p, 7)
	st := randomState(rng, p, 6)
	can.run(st)
	hw := 0
	for i := range st.g.Heap {
		if st.g.Heap[i] != (Node{}) {
			hw = i
		}
	}
	slots := len(st.g.Vars) + 1 + 10*hw
	for _, th := range st.th {
		slots += 6 + len(th.locals)
	}
	if packed := cdc.encode(nil, st); len(packed) >= slots {
		t.Fatalf("packed key (%dB) not smaller than one byte per slot (%dB)", len(packed), slots)
	}
}

// TestNewCodecFallbacks pins layout resolution: no layout and a
// mis-shaped layout both fall back to the structural one instead of
// mis-encoding, and a fitting layout is used as given.
func TestNewCodecFallbacks(t *testing.T) {
	p := quickProgram(3, 2, []VarKind{KVal, KPtr, KTagged})
	p.HeapCap = 6
	if cdc := newCodec(p, Options{Threads: 2, Ops: 2}); cdc.lay == nil || len(cdc.lay.Globals) != len(p.Globals.Kinds) {
		t.Fatalf("no-layout fallback does not match the program: %+v", cdc.lay)
	}
	fits := StructuralLayout(p, 2, 2)
	if cdc := newCodec(p, Options{Threads: 2, Ops: 2, Layout: fits}); cdc.lay != fits {
		t.Fatal("a fitting layout was not used")
	}
	other := quickProgram(1, 0, []VarKind{KVal})
	other.HeapCap = 2
	misfit := StructuralLayout(other, 2, 2)
	cdc := newCodec(p, Options{Threads: 2, Ops: 2, Layout: misfit})
	if cdc.lay == misfit {
		t.Fatal("mis-shaped layout was not discarded")
	}
	if cdc.lay == nil || len(cdc.lay.Globals) != len(p.Globals.Kinds) {
		t.Fatalf("fallback layout does not match the program: %+v", cdc.lay)
	}
}
