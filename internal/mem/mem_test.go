package mem

import (
	"testing"
	"unsafe"
)

func addrOf[T any](s []T) uintptr {
	return uintptr(unsafe.Pointer(unsafe.SliceData(s)))
}

func TestMakeEmpty(t *testing.T) {
	if s := Make[uint64](0); s != nil {
		t.Fatalf("Make(0) = %v, want nil", s)
	}
	if s := Make[uint64](-3); s != nil {
		t.Fatalf("Make(-3) = %v, want nil", s)
	}
}

func TestMakeWritable(t *testing.T) {
	s := Make[uint64](128)
	for i := range s {
		s[i] = uint64(i)
	}
	for i := range s {
		if s[i] != uint64(i) {
			t.Fatalf("s[%d] = %d", i, s[i])
		}
	}
	if cap(s) != len(s) {
		t.Fatalf("cap = %d, want %d", cap(s), len(s))
	}
}

// TestHugeInterior pins which part of an allocation is advised toward huge
// pages: exactly the whole 2 MiB-aligned pages inside it, so a buffer
// smaller than one huge page is never advised and one of at least two
// huge pages always is, wherever the allocator places it.
func TestHugeInterior(t *testing.T) {
	const base = 64 * hugePage
	for _, off := range []uintptr{0, 8, 64, 4096, hugePage / 2, hugePage - 8} {
		addr := base + off
		for _, size := range []uintptr{0, 1, 64, 1 << 20, hugePage - 1} {
			if lo, hi := hugeInterior(addr, size); lo != hi {
				t.Errorf("addr+%d size %d: advised [%#x, %#x), want nothing", off, size, lo, hi)
			}
		}
		for _, size := range []uintptr{2 * hugePage, 4 << 20, 5<<20 + 3, 64 << 20} {
			lo, hi := hugeInterior(addr, size)
			if lo >= hi || lo%hugePage != 0 || hi%hugePage != 0 || lo < addr || hi > addr+size {
				t.Errorf("addr+%d size %d: advised [%#x, %#x), want aligned non-empty interior", off, size, lo, hi)
			}
			if lo-addr >= hugePage || addr+size-hi >= hugePage {
				t.Errorf("addr+%d size %d: advised [%#x, %#x) leaves a whole huge page out", off, size, lo, hi)
			}
		}
	}
	if lo, hi := hugeInterior(base, hugePage); hi-lo != hugePage {
		t.Errorf("one aligned huge page: advised [%#x, %#x)", lo, hi)
	}
}
