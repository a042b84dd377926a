package machine

import "unsafe"

// cacheLine is the cache-line size isolated pads to: 64 bytes on amd64
// and on common arm64 cores.
const cacheLine = 64

// isolated returns a slice of n zero Ts with capacity c whose elements
// share no cache line with any other allocation: the backing array
// carries at least a cache line of unused elements on each side. Every
// parallel explorer worker writes its small scratch objects on every
// step; allocated side by side they would share lines, and each write by
// one worker would evict the line from the other's cache (false
// sharing). Appending past c reallocates without the padding, so a
// buffer's c must cover its longest use.
func isolated[T any](n, c int) []T {
	var zero T
	size := int(unsafe.Sizeof(zero))
	if size == 0 {
		return make([]T, n, c)
	}
	pad := (cacheLine + size - 1) / size
	return make([]T, pad+c+pad)[pad : pad+n : pad+c]
}

// isolatedNew returns a pointer to a zero T on cache lines of its own.
func isolatedNew[T any]() *T {
	return &isolated[T](1, 1)[0]
}
