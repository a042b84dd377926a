// Packed state layouts: the codec is deliberately ignorant of the
// machine's state shape — it deals in Slots (one bounded integer each),
// Layouts (an ordered slot schema) and opaque byte keys. The explorer
// owns the traversal order; the codec owns how values become bytes.
package statecodec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Slot describes one bounded integer position of a packed layout: every
// value stored in the slot lies in [Lo, Hi] and is encoded as the
// fixed-width value-Lo in Bits bits. A singleton slot (Lo == Hi) has
// Bits == 0 and occupies no space at all.
type Slot struct {
	Lo, Hi int32
	Bits   uint8
}

// MakeSlot builds the slot covering [lo, hi]; lo must not exceed hi.
func MakeSlot(lo, hi int32) Slot {
	if hi < lo {
		panic(fmt.Sprintf("statecodec: slot bounds [%d, %d] inverted", lo, hi))
	}
	return Slot{Lo: lo, Hi: hi, Bits: uint8(bits.Len32(uint32(hi - lo)))}
}

// Contains reports whether v is encodable in the slot.
func (s Slot) Contains(v int32) bool { return v >= s.Lo && v <= s.Hi }

// Node field slot indices of Layout.Node, in state-encoding order.
const (
	NodeKind = iota
	NodeVal
	NodeKey
	NodeNext
	NodeA
	NodeB
	NodeC
	NodeD
	NodeMark
	NodeLock
	NodeSlots
)

// Thread slot indices of Layout.Thread, in state-encoding order.
const (
	ThreadStatus = iota
	ThreadMethod
	ThreadArg
	ThreadPC
	ThreadRet
	ThreadOps
	ThreadSlots
)

// Layout is the packed-state schema of one program instance: a slot for
// every position the state encoder visits, in its traversal order —
// global variables, the heap watermark, the ten Node fields (repeated
// per live heap cell) and the six thread registers plus locals
// (repeated per thread). The watermark sits at a fixed bit offset (all
// global slots are fixed-width), so equal encodings imply equal
// watermarks, hence identical field boundaries: the packed encoding is
// injective on canonical states and state identity never depends on how
// the layout was derived.
type Layout struct {
	Globals   []Slot
	Watermark Slot
	Node      [NodeSlots]Slot
	Thread    [ThreadSlots]Slot
	Locals    []Slot
}

// MaxBytes bounds the encoded size of any state with the given thread
// count, for buffer pre-sizing.
func (l *Layout) MaxBytes(threads int) int {
	b := int(l.Watermark.Bits)
	for _, s := range l.Globals {
		b += int(s.Bits)
	}
	per := 0
	for _, s := range l.Node {
		per += int(s.Bits)
	}
	b += per * int(l.Watermark.Hi)
	per = 0
	for _, s := range l.Thread {
		per += int(s.Bits)
	}
	for _, s := range l.Locals {
		per += int(s.Bits)
	}
	b += per * threads
	return (b + 7) / 8
}

// BitWriter packs slot values into a byte buffer, least significant
// bits first. It is a value type with no internal allocation: Reset it
// onto a reused buffer, Put every slot in layout order, and Finish to
// flush the trailing partial byte (zero-padded, so encodings are
// deterministic). ResetAt and FinishAt instead overwrite a fixed-width
// bit range of an existing encoding in place.
type BitWriter struct {
	buf []byte
	acc uint64
	n   uint32
}

// Reset points the writer at buf (reusing its capacity).
func (w *BitWriter) Reset(buf []byte) {
	w.buf = buf[:0]
	w.acc = 0
	w.n = 0
}

// ResetAt points the writer at bit off of the encoding buf: the Puts
// that follow overwrite buf's bits from off on, and FinishAt keeps
// every bit of buf before off and after the last bit written.
func (w *BitWriter) ResetAt(buf []byte, off int) {
	w.buf = buf[:off>>3]
	w.n = uint32(off & 7)
	w.acc = 0
	if w.n > 0 {
		w.acc = uint64(buf[off>>3]) & (1<<w.n - 1)
	}
}

// Put appends v encoded per s. It panics when v is outside the slot's
// range: an unsound layout must fail loudly at encode time (the explorer
// reports the panic as a model fault).
func (w *BitWriter) Put(s Slot, v int32) {
	// One unsigned compare covers both bounds: below Lo, v-Lo wraps past
	// Hi-Lo.
	if uint32(v-s.Lo) > uint32(s.Hi-s.Lo) {
		outOfRange(s, v)
	}
	w.acc |= uint64(uint32(v-s.Lo)) << w.n
	w.n += uint32(s.Bits)
	if w.n >= 32 {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(w.acc))
		w.acc >>= 32
		w.n -= 32
	}
}

// outOfRange reports a value outside its slot, out of Put's hot path.
func outOfRange(s Slot, v int32) {
	panic(fmt.Sprintf("statecodec: value %d outside slot range [%d, %d]", v, s.Lo, s.Hi))
}

// flushBytes moves every whole pending byte into the buffer.
func (w *BitWriter) flushBytes() {
	for w.n >= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		w.n -= 8
	}
}

// Finish flushes the pending partial byte and returns the buffer.
func (w *BitWriter) Finish() []byte {
	w.flushBytes()
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc = 0
		w.n = 0
	}
	return w.buf
}

// FinishAt completes an overwrite begun by ResetAt on buf: it flushes
// the written bits into buf, merges the last partial byte with buf's
// bits above it, and returns buf at its full length.
func (w *BitWriter) FinishAt(buf []byte) []byte {
	w.flushBytes()
	if w.n > 0 {
		i := len(w.buf)
		m := byte(1)<<w.n - 1
		buf[i] = buf[i]&^m | byte(w.acc)&m
		w.acc = 0
		w.n = 0
	}
	return buf
}

// BitReader unpacks slot values written by BitWriter, in the same slot
// order. Like the writer it is allocation-free.
type BitReader struct {
	buf []byte
	pos int
	acc uint64
	n   uint32
}

// Reset points the reader at an encoded key.
func (r *BitReader) Reset(buf []byte) {
	r.buf = buf
	r.pos = 0
	r.acc = 0
	r.n = 0
}

// Get reads the next value per s.
func (r *BitReader) Get(s Slot) int32 {
	if s.Bits == 0 {
		return s.Lo
	}
	for r.n < uint32(s.Bits) {
		r.acc |= uint64(r.buf[r.pos]) << r.n
		r.pos++
		r.n += 8
	}
	v := uint32(r.acc & (uint64(1)<<s.Bits - 1))
	r.acc >>= s.Bits
	r.n -= uint32(s.Bits)
	return s.Lo + int32(v)
}
