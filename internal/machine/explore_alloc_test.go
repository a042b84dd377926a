package machine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/statecodec"
)

// TestDecodeKeysAllocFree pins the decode side of the BFS hot path: a
// level of the in-memory store hands out its keys as slices of the level
// buffer, so reading every key of a level in frontier chunks and
// decoding it must not allocate.
func TestDecodeKeysAllocFree(t *testing.T) {
	p := counterProgram()
	opt := Options{Threads: 2, Ops: 2, Workers: 1}
	spy := &decodeSpy{t: t, cdc: newCodec(p, opt), cur: newScratchState(p, opt.Threads)}
	opt.Backend.Open = func(cfg statecodec.Config) (statecodec.Store, error) {
		st, err := statecodec.OpenMem(cfg)
		spy.Store = st
		return spy, err
	}
	if _, _, err := ExploreWithInfoContext(context.Background(), p, opt); err != nil {
		t.Fatal(err)
	}
	if spy.widest < 10 {
		t.Fatalf("expected a level of at least 10 states, the widest has %d", spy.widest)
	}
}

// decodeSpy wraps the explorer's store and, each time a level is
// sealed, decodes all of its keys and fails the test if that allocates.
type decodeSpy struct {
	statecodec.Store
	t      *testing.T
	cdc    codec
	cur    *state
	cr     statecodec.ChunkReader
	widest int
}

func (s *decodeSpy) NextLevel() (statecodec.Level, error) {
	lvl, err := s.Store.NextLevel()
	if err != nil || lvl.Len() == 0 {
		return lvl, err
	}
	n := lvl.Len()
	s.widest = max(s.widest, n)
	allocs := testing.AllocsPerRun(10, func() {
		for start := 0; start < n; start += frontierChunk {
			keys, err := lvl.Chunk(start, min(start+frontierChunk, n), &s.cr)
			if err != nil {
				s.t.Fatal(err)
			}
			for _, key := range keys {
				s.cdc.decode(key, s.cur)
			}
		}
	})
	if allocs != 0 {
		s.t.Errorf("decoding all %d keys of a level allocated %.1f times per sweep; want 0", n, allocs)
	}
	return lvl, nil
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
