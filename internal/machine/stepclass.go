package machine

import (
	"bytes"
	"fmt"
	"sync/atomic"
)

// stepClass says how much of a successor's intern key a step can change,
// and so how little work the explorer needs to build it. The classes are
// ordered: a step that has the footprint of several gets the lowest.
type stepClass uint8

const (
	// classFull steps may change the canonical heap: the successor is
	// canonicalized, then encoded.
	classFull stepClass = iota
	// classCanon steps write no pointer-kinded location and neither
	// allocate nor free, so the successor of a canonical state is
	// canonical with the same watermark: it is encoded directly.
	classCanon
	// classLocal steps change only the stepping thread's registers and
	// non-pointer locals: the successor's key is the predecessor's with
	// that thread's fixed-width bit range re-encoded (codec.patchThread).
	classLocal
)

// classifyStmt returns the class of a statement's goto outcomes, read
// from its IR; a return outcome clears the thread's locals, which may
// hold pointers, and is always classFull. A statement without IR is an
// opaque closure and gets classFull.
func classifyStmt(p *Program, ir []Instr) stepClass {
	if ir == nil {
		return classFull
	}
	return classifySeq(p, ir, classLocal)
}

// classifySeq lowers c to the class of every instruction in seq,
// including those nested in either branch of an if.
func classifySeq(p *Program, seq []Instr, c stepClass) stepClass {
	for i := range seq {
		in := &seq[i]
		switch in.Op {
		case IRAlloc, IRFree:
			return classFull
		case IRAssign, IRCas, IRIfCas, IRLock, IRUnlock:
			c = min(c, writeClass(p, &in.LHS))
		}
		c = classifySeq(p, in.Then, c)
		c = classifySeq(p, in.Else, c)
		if c == classFull {
			return c
		}
	}
	return c
}

// writeClass is the class of a write to l: a non-pointer local of the
// stepping thread is classLocal, any other non-pointer location
// classCanon, and a pointer-kinded one (a KPtr or KTagged global or
// local, a Next/A/B field) classFull.
func writeClass(p *Program, l *Loc) stepClass {
	switch l.Kind {
	case LocLocal:
		if p.localKind(l.Index) == KVal {
			return classLocal
		}
	case LocGlobal:
		if p.Globals.Kinds[l.Index] == KVal {
			return classCanon
		}
	case LocField:
		if !l.Field.IsPtr() {
			return classCanon
		}
	}
	return classFull
}

// classifyProgram returns the goto-outcome class of every statement,
// indexed by method and pc.
func classifyProgram(p *Program) [][]stepClass {
	cls := make([][]stepClass, len(p.Methods))
	for mi := range p.Methods {
		body := p.Methods[mi].Body
		cls[mi] = make([]stepClass, len(body))
		for pc := range body {
			cls[mi][pc] = classifyStmt(p, body[pc].IR)
		}
	}
	return cls
}

// keyOracle counts the active EnableKeyOracle calls.
var keyOracle atomic.Int32

// EnableKeyOracle makes every exploration that starts while it is in
// effect check each successor key built without the canonicalizer
// against the full canonicalize-and-encode path, and panic on any byte
// difference. The panic is an explorer defect, not a model fault: it is
// never turned into a *ModelFaultError, so no caller can mistake it for
// a faulting model. EnableKeyOracle returns the function that ends its
// effect. Intended for tests only; calls nest and are safe for
// concurrent use.
func EnableKeyOracle() (disable func()) {
	keyOracle.Add(1)
	return func() { keyOracle.Add(-1) }
}

// successorKey returns x.succ's intern key in buf, doing only the work
// the class of the step that built it needs.
func (x *expander) successorKey(buf []byte, cdc codec) []byte {
	switch x.succClass {
	case classLocal:
		buf = cdc.patchThread(buf, x.key, x.succ, int(x.at.t))
		x.keyPatched++
	case classCanon:
		buf = cdc.encode(buf, x.succ)
	default:
		x.canon.run(x.succ)
		return cdc.encode(buf, x.succ)
	}
	x.canonSkipped++
	if x.oracle != nil {
		x.checkKey(buf, cdc)
	}
	return buf
}

// keyMismatch is the key oracle's panic value; expand re-raises it.
type keyMismatch string

// checkKey is the key oracle: it canonicalizes and encodes a copy of
// x.succ in full and panics unless the result is key.
func (x *expander) checkKey(key []byte, cdc codec) {
	x.succ.copyInto(x.oracle)
	x.canon.run(x.oracle)
	x.oracleBuf = cdc.encode(x.oracleBuf[:0], x.oracle)
	if !bytes.Equal(key, x.oracleBuf) {
		panic(keyMismatch(fmt.Sprintf("machine: %s: %s: class %d successor key %x differs from its canonical encoding %x",
			x.prog.Name, newFault(x.prog, x.at, nil).site(), x.succClass, key, x.oracleBuf)))
	}
}
