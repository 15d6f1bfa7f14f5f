package obs

import "sync"

// Ring is a fixed-capacity, mutex-guarded history: it retains the last
// capacity values added, overwriting the oldest once full, and counts
// every value ever added. It backs the self-scraped metrics history and the
// adaptive filter's decision trace. (The tracer's span ring is separate:
// it is lock-free because it sits on the probe path.)
//
// All methods are safe for concurrent use.
type Ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	next  int    // index the next Add writes to
	n     int    // retained values (== len(buf) once wrapped)
	total uint64 // values ever added, including overwritten ones
}

// NewRing returns a ring retaining the last capacity values (minimum 1).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Add records v, overwriting the oldest value once full.
func (r *Ring[T]) Add(v T) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.total++
	r.mu.Unlock()
}

// Walk calls fn on the retained values, newest first, until fn returns
// false. fn runs under the ring's lock and must not call back into it.
func (r *Ring[T]) Walk(fn func(T) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 1; i <= r.n; i++ {
		if !fn(r.buf[(r.next-i+len(r.buf))%len(r.buf)]) {
			return
		}
	}
}

// Snapshot returns a copy of the retained values, oldest first, and the
// total ever added, read under one lock acquisition so that
// len(values) <= total always holds.
func (r *Ring[T]) Snapshot() ([]T, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, r.n)
	start := r.next - r.n + len(r.buf)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out, r.total
}
