package statecodec_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/statecodec"
)

// TestBitRoundTrip packs randomized values through slots of every width
// (including zero-bit singletons and negative ranges) and checks the
// reader recovers each exactly.
func TestBitRoundTrip(t *testing.T) {
	slots := []statecodec.Slot{
		statecodec.MakeSlot(0, 0),     // singleton, 0 bits
		statecodec.MakeSlot(-5, -5),   // negative singleton
		statecodec.MakeSlot(0, 1),     // 1 bit
		statecodec.MakeSlot(-64, 191), // the structural value window
		statecodec.MakeSlot(-3, 12),   // small signed range
		statecodec.MakeSlot(0, 1<<20), // wide slot spanning several bytes
	}
	rng := rand.New(rand.NewSource(1))
	var w statecodec.BitWriter
	var r statecodec.BitReader
	for trial := 0; trial < 200; trial++ {
		vals := make([]int32, 64)
		order := make([]statecodec.Slot, 64)
		for i := range vals {
			s := slots[rng.Intn(len(slots))]
			order[i] = s
			vals[i] = s.Lo + rng.Int31n(s.Hi-s.Lo+1)
		}
		w.Reset(nil)
		for i, s := range order {
			w.Put(s, vals[i])
		}
		buf := w.Finish()
		r.Reset(buf)
		for i, s := range order {
			if got := r.Get(s); got != vals[i] {
				t.Fatalf("trial %d slot %d (%+v): got %d want %d", trial, i, s, got, vals[i])
			}
		}
	}
}

// TestBitWriterOverwrite checks ResetAt/FinishAt: overwriting a run of
// slots inside an encoding in place gives exactly the bytes of encoding
// the changed values from scratch, at every bit alignment.
func TestBitWriterOverwrite(t *testing.T) {
	slots := []statecodec.Slot{
		statecodec.MakeSlot(0, 0),
		statecodec.MakeSlot(0, 1),
		statecodec.MakeSlot(-64, 191),
		statecodec.MakeSlot(-3, 12),
		statecodec.MakeSlot(0, 1<<20),
	}
	rng := rand.New(rand.NewSource(2))
	var w statecodec.BitWriter
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		order := make([]statecodec.Slot, n)
		vals := make([]int32, n)
		for i := range order {
			order[i] = slots[rng.Intn(len(slots))]
			vals[i] = order[i].Lo + rng.Int31n(order[i].Hi-order[i].Lo+1)
		}
		encode := func() []byte {
			w.Reset(nil)
			for i, s := range order {
				w.Put(s, vals[i])
			}
			return append([]byte(nil), w.Finish()...)
		}
		key := encode()
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo+1)
		off := 0
		for _, s := range order[:lo] {
			off += int(s.Bits)
		}
		for i := lo; i < hi; i++ {
			vals[i] = order[i].Lo + rng.Int31n(order[i].Hi-order[i].Lo+1)
		}
		want := encode()
		w.ResetAt(key, off)
		for i := lo; i < hi; i++ {
			w.Put(order[i], vals[i])
		}
		if got := w.FinishAt(key); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: overwrite of slots [%d, %d) at bit %d gave %x, want %x", trial, lo, hi, off, got, want)
		}
	}
}

// TestBitWriterRejectsOutOfRange checks the loud-failure contract: an
// out-of-range value must panic at encode time.
func TestBitWriterRejectsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range value")
		}
	}()
	var w statecodec.BitWriter
	w.Reset(nil)
	w.Put(statecodec.MakeSlot(0, 3), 4)
}

func TestParseBudget(t *testing.T) {
	good := map[string]int64{
		"0":      0,
		"123":    123,
		"64b":    64,
		"4KiB":   4 << 10,
		"4kb":    4 << 10,
		"64MiB":  64 << 20,
		"64mb":   64 << 20,
		"2GiB":   2 << 30,
		"2g":     2 << 30,
		"1.5MiB": 3 << 19,
		// The largest budgets below 2^63 bytes still fit.
		"9223372036854774784": 9223372036854774784,
		"8388607GiB":          8388607 << 30,
	}
	for in, want := range good {
		got, err := statecodec.ParseBudget(in)
		if err != nil {
			t.Errorf("ParseBudget(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseBudget(%q) = %d, want %d", in, got, want)
		}
	}
	for _, bad := range []string{"", "-1", "-64MiB", "lots", "12QiB",
		"inf", "+Inf", "-inf", "NaN", "nanMiB", "1e30", "1e30GiB", "9223372036854775808", "8589934592GiB"} {
		if _, err := statecodec.ParseBudget(bad); err == nil {
			t.Errorf("ParseBudget(%q): expected error", bad)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		0:             "0 B",
		512:           "512 B",
		4 << 10:       "4.0 KiB",
		64 << 20:      "64.0 MiB",
		3 << 30:       "3.0 GiB",
		1<<20 + 1<<19: "1.5 MiB",
	}
	for in, want := range cases {
		if got := statecodec.FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}
