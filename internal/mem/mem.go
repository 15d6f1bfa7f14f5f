// Package mem provides the backing storage for filter word arrays.
//
// A probe into a filter far larger than the caches misses the TLB as well
// as the cache. On Linux, Make therefore advises the kernel to back the
// allocation's whole 2 MiB huge pages with transparent huge pages (madvise
// MADV_HUGEPAGE), which takes effect when the host's THP mode is "always"
// or "madvise". Only the 2 MiB-aligned interior is advised: nothing is
// over-allocated, so resident memory is unchanged, and an allocation
// smaller than one huge page is never advised.
//
// Make does not move element 0 onto a cache-line boundary. Storage offset
// one word past a line was measured against line-aligned storage on the
// probe-large benchmark, and alignment did not win (README §Performance).
package mem

import "unsafe"

// hugePage is the transparent huge page size Make advises toward (the
// PMD size of x86-64 and of arm64 with 4 KiB base pages).
const hugePage = 2 << 20

// Make returns a zeroed length-n slice, like make, with the huge pages it
// covers advised. n <= 0 returns nil.
func Make[T any](n int) []T {
	if n <= 0 {
		return nil
	}
	s := make([]T, n)
	var zero T
	adviseHuge(unsafe.Pointer(unsafe.SliceData(s)), uintptr(n)*unsafe.Sizeof(zero))
	return s
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
