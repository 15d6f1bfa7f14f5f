package mem

import (
	"syscall"
	"unsafe"
)

// adviseHuge asks the kernel to back the whole huge pages inside
// [p, p+size) with transparent huge pages. The advice is only a hint: with
// THP disabled, or on a kernel without it, the call fails or is ignored
// and the storage behaves exactly as before, so the error is dropped.
func adviseHuge(p unsafe.Pointer, size uintptr) {
	addr := uintptr(p)
	lo, hi := hugeInterior(addr, size)
	if lo == hi {
		return
	}
	_ = syscall.Madvise(unsafe.Slice((*byte)(unsafe.Add(p, lo-addr)), hi-lo), syscall.MADV_HUGEPAGE)
}
