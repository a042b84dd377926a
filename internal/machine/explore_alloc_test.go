package machine

import (
	"reflect"
	"testing"

	"repro/internal/statecodec"
)

// TestDecodeKeysAllocFree pins the decode side of the BFS hot path: a
// hot level of the store hands out its keys as slices of the level
// buffer, so reading every key of a level in frontier chunks and
// decoding it must not allocate. The test walks the state space level
// by level through a store, as the explorer does.
func TestDecodeKeysAllocFree(t *testing.T) {
	p := counterProgram()
	opt := Options{Threads: 2, Ops: 2, Workers: 1}
	cdc := newCodec(p, opt)
	store := statecodec.NewStore(statecodec.Config{}, nil)
	defer store.Close()
	w := newPWorker(p, opt, cdc, store)
	key, err := initialKey(p, opt, cdc)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{string(key): true}
	next := [][]byte{key}
	widest := 0
	for len(next) > 0 {
		for _, k := range next {
			if err := store.PushFrontier(k); err != nil {
				t.Fatal(err)
			}
		}
		lvl, err := store.NextLevel()
		if err != nil {
			t.Fatal(err)
		}
		n := lvl.Len()
		widest = max(widest, n)
		var cr statecodec.ChunkReader
		allocs := testing.AllocsPerRun(10, func() {
			for start := 0; start < n; start += frontierChunk {
				keys, err := lvl.Chunk(start, min(start+frontierChunk, n), &cr)
				if err != nil {
					t.Fatal(err)
				}
				for _, key := range keys {
					w.cdc.decode(key, w.cur)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("decoding all %d keys of a level allocated %.1f times per sweep; want 0", n, allocs)
		}
		next = nil
		for start := 0; start < n; start += frontierChunk {
			keys, err := lvl.Chunk(start, min(start+frontierChunk, n), &cr)
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range keys {
				sink := &keySink{w: w}
				w.cdc.decode(key, w.cur)
				if _, err := w.x.expand(w.cur, key, sink); err != nil {
					t.Fatal(err)
				}
				for _, k := range sink.keys {
					if !seen[string(k)] {
						seen[string(k)] = true
						next = append(next, k)
					}
				}
			}
		}
	}
	if widest < 10 {
		t.Fatalf("expected a level of at least 10 states, the widest has %d", widest)
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
