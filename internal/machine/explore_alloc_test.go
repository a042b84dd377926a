package machine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/lts"
	"repro/internal/statecodec"
)

// TestDecodeKeysAllocFree pins the decode side of the BFS hot path:
// interned state keys are slices of the table's key arena, so popping a
// state off the frontier (decode of its key) must not allocate.
func TestDecodeKeysAllocFree(t *testing.T) {
	p := counterProgram()
	opt := Options{Threads: 2, Ops: 2, Workers: 1}
	e := &explorer{
		ctx:  context.Background(),
		prog: p,
		opt:  opt,
		cdc:  newCodec(p, opt),
		ai:   newActionInterner(p, lts.NewAlphabet(), lts.NewAlphabet()),
	}
	if _, _, err := e.run(DefaultMaxStates); err != nil {
		t.Fatal(err)
	}
	n := e.tab.Len()
	if n < 10 {
		t.Fatalf("expected a non-trivial state space, got %d states", n)
	}
	cur := newScratchState(p, 2)
	allocs := testing.AllocsPerRun(10, func() {
		for i := int32(0); int(i) < n; i++ {
			e.cdc.decode(e.tab.Key(i), cur)
		}
	})
	if allocs != 0 {
		t.Fatalf("decoding all %d interned keys allocated %.1f times per sweep; want 0", n, allocs)
	}
}

// TestTransitionBuffersPointerFree guards the GC cost of the parallel
// explorer: its per-worker transition buffers hold one ptrans per
// transition, and the runtime allocates them noscan — never walked by
// the collector — only while ptrans, and the statecodec.Ref inside it,
// contain no pointer-kinded field.
func TestTransitionBuffersPointerFree(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(statecodec.Ref{}), reflect.TypeOf(ptrans{})} {
		if path := pointerField(typ, typ.String()); path != "" {
			t.Errorf("%s holds a pointer at %s", typ, path)
		}
	}
}

// pointerField returns the path of the first field of typ the GC would
// have to scan, or "" when there is none.
func pointerField(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	case reflect.Array:
		return pointerField(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerField(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	default:
		return path + " (" + typ.Kind().String() + ")"
	}
}
