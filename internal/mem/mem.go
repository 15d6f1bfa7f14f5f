// Package mem provides cache-line-aligned backing storage for filter
// word arrays.
//
// The paper's blocked layouts (§4 of Lang et al., PVLDB 2019) assume a
// register-blocked or sectorized block occupies exactly one cache line,
// so a probe costs one memory access. Go's allocator only guarantees
// 8/16-byte alignment for ordinary slices, which lets a 512-bit block
// straddle two lines and silently doubles the miss cost. Aligned
// over-allocates by one cache line and re-slices so element 0 sits on a
// 64-byte boundary; the extra padding is retained by the returned slice's
// underlying array, so the guarantee survives for the slice's lifetime.
//
// A probe into a filter far larger than the caches also misses the TLB.
// On Linux, Aligned therefore advises the kernel to back the allocation's
// whole 2 MiB huge pages with transparent huge pages (madvise
// MADV_HUGEPAGE), which takes effect when the host's THP mode is "always"
// or "madvise". Only the 2 MiB-aligned interior is advised: nothing is
// over-allocated, so resident memory is unchanged, and an allocation
// smaller than one huge page is never advised.
package mem

import "unsafe"

// CacheLine is the alignment boundary, in bytes, that Aligned guarantees
// for element 0 of every slice it returns.
const CacheLine = 64

// hugePage is the transparent huge page size Aligned advises toward (the
// PMD size of x86-64 and of arm64 with 4 KiB base pages).
const hugePage = 2 << 20

// Aligned returns a length-n slice whose element 0 is CacheLine-aligned.
// The element size must divide CacheLine (1, 2, 4, 8, ... byte elements);
// other sizes fall back to a plain make, since no whole-element offset
// can reach the boundary. n <= 0 returns nil.
func Aligned[T any](n int) []T {
	if n <= 0 {
		return nil
	}
	var zero T
	size := int(unsafe.Sizeof(zero))
	if size == 0 || CacheLine%size != 0 {
		return make([]T, n)
	}
	buf := alloc[T](n, size)
	addr := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	off := 0
	if r := int(addr % CacheLine); r != 0 {
		off = (CacheLine - r) / size
	}
	return buf[off : off+n : off+n]
}

// IsAligned reports whether element 0 of s sits on a CacheLine boundary.
// Empty slices are vacuously aligned.
func IsAligned[T any](s []T) bool {
	if len(s) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(unsafe.SliceData(s)))%CacheLine == 0
}

// Misaligned returns a length-n slice whose element 0 is deliberately NOT
// CacheLine-aligned (it sits one element past a boundary), so blocks
// straddle cache lines. It exists as the control arm for the
// aligned-vs-misaligned benchmark comparison; no filter uses it outside
// internal/bench.
func Misaligned[T any](n int) []T {
	if n <= 0 {
		return nil
	}
	var zero T
	size := int(unsafe.Sizeof(zero))
	if size == 0 || CacheLine%size != 0 || CacheLine/size < 2 {
		return make([]T, n)
	}
	buf := alloc[T](n, size)
	addr := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	// Land element 0 exactly one element past a line start.
	off := 1
	if r := int(addr % CacheLine); r != 0 {
		off = (CacheLine-r)/size + 1
	}
	return buf[off : off+n : off+n]
}

// alloc makes n elements of the given size plus one cache line of
// alignment padding, and advises the huge pages the buffer covers. Aligned
// and Misaligned share it, so the misaligned benchmark control arm differs
// from real storage in alignment only, never in page size.
func alloc[T any](n, size int) []T {
	buf := make([]T, n+CacheLine/size)
	adviseHuge(unsafe.Pointer(unsafe.SliceData(buf)), uintptr(len(buf))*uintptr(size))
	return buf
}

// hugeInterior returns the 2 MiB-aligned subrange [lo, hi) of
// [addr, addr+size), with lo == hi when the range covers no whole huge page.
func hugeInterior(addr, size uintptr) (lo, hi uintptr) {
	lo = (addr + hugePage - 1) &^ (hugePage - 1)
	hi = (addr + size) &^ (hugePage - 1)
	if hi < lo {
		hi = lo
	}
	return lo, hi
}
