package statecodec

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseBudget parses a human memory-budget string: a non-negative
// number with an optional binary-size suffix (B, K/KB/KiB, M/MB/MiB,
// G/GB/GiB, case-insensitive; K, M and G are binary multiples). Plain
// numbers are bytes. "0" disables the budget. A value that is not finite
// or does not fit in an int64 is an error.
func ParseBudget(s string) (int64, error) {
	t := strings.TrimSpace(s)
	mult := int64(1)
	lower := strings.ToLower(t)
	for _, suf := range []struct {
		name string
		m    int64
	}{
		{"kib", 1 << 10}, {"kb", 1 << 10}, {"k", 1 << 10},
		{"mib", 1 << 20}, {"mb", 1 << 20}, {"m", 1 << 20},
		{"gib", 1 << 30}, {"gb", 1 << 30}, {"g", 1 << 30},
		{"b", 1},
	} {
		if strings.HasSuffix(lower, suf.name) {
			mult = suf.m
			t = strings.TrimSpace(t[:len(t)-len(suf.name)])
			break
		}
	}
	if t == "" {
		return 0, fmt.Errorf("statecodec: invalid memory budget %q", s)
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil || !(v >= 0) {
		return 0, fmt.Errorf("statecodec: invalid memory budget %q", s)
	}
	b := v * float64(mult)
	// float64(math.MaxInt64) is 2^63, the first value past the range.
	if b >= math.MaxInt64 {
		return 0, fmt.Errorf("statecodec: memory budget %q exceeds %d bytes", s, int64(math.MaxInt64))
	}
	return int64(b), nil
}

// FormatBytes renders a byte count for humans ("1.5 MiB").
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
