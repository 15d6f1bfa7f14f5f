package mem

import (
	"testing"
	"unsafe"
)

func addrOf[T any](s []T) uintptr {
	return uintptr(unsafe.Pointer(unsafe.SliceData(s)))
}

func testAligned[T any](t *testing.T, name string) {
	t.Helper()
	for _, n := range []int{1, 2, 7, 8, 63, 64, 65, 1000, 1 << 16} {
		s := Aligned[T](n)
		if len(s) != n {
			t.Fatalf("%s: Aligned(%d) len = %d", name, n, len(s))
		}
		if got := addrOf(s) % CacheLine; got != 0 {
			t.Errorf("%s: Aligned(%d) addr %% %d = %d", name, n, CacheLine, got)
		}
		if !IsAligned(s) {
			t.Errorf("%s: IsAligned(Aligned(%d)) = false", name, n)
		}
	}
}

func TestAligned(t *testing.T) {
	// Repeat enough times that the raw allocations land on varied
	// addresses; every returned slice must still be aligned.
	for i := 0; i < 64; i++ {
		testAligned[uint8](t, "uint8")
		testAligned[uint16](t, "uint16")
		testAligned[uint32](t, "uint32")
		testAligned[uint64](t, "uint64")
	}
}

func TestAlignedEmpty(t *testing.T) {
	if s := Aligned[uint64](0); s != nil {
		t.Fatalf("Aligned(0) = %v, want nil", s)
	}
	if s := Aligned[uint64](-3); s != nil {
		t.Fatalf("Aligned(-3) = %v, want nil", s)
	}
	if !IsAligned([]uint64(nil)) {
		t.Fatal("IsAligned(nil) = false, want vacuous true")
	}
}

func TestAlignedWritable(t *testing.T) {
	s := Aligned[uint64](128)
	for i := range s {
		s[i] = uint64(i)
	}
	for i := range s {
		if s[i] != uint64(i) {
			t.Fatalf("s[%d] = %d", i, s[i])
		}
	}
	// Capacity is clipped to length: appends cannot scribble into the
	// alignment padding shared with nothing, and cannot silently
	// de-align a reallocated slice without the caller noticing length
	// growth.
	if cap(s) != len(s) {
		t.Fatalf("cap = %d, want %d", cap(s), len(s))
	}
}

// Structs whose size divides the cache line are aligned too (the exact
// set's 8-byte slot), and sizes that do not divide fall back to plain
// allocation without panicking.
func TestAlignedStructElem(t *testing.T) {
	type slot struct{ a, b uint32 }
	for i := 0; i < 64; i++ {
		s := Aligned[slot](100)
		if !IsAligned(s) {
			t.Fatal("8-byte struct slice not aligned")
		}
	}
	type odd struct{ a, b, c uint64 } // 24 bytes: does not divide 64
	s := Aligned[odd](10)
	if len(s) != 10 {
		t.Fatalf("fallback len = %d", len(s))
	}
}

func TestMisaligned(t *testing.T) {
	for i := 0; i < 64; i++ {
		s := Misaligned[uint64](256)
		if len(s) != 256 {
			t.Fatalf("len = %d", len(s))
		}
		if got := addrOf(s) % CacheLine; got != 8 {
			t.Errorf("Misaligned addr %% %d = %d, want 8", CacheLine, got)
		}
		if IsAligned(s) {
			t.Error("IsAligned(Misaligned(...)) = true")
		}
	}
}

// TestHugeInterior pins which part of an allocation is advised toward huge
// pages: exactly the whole 2 MiB-aligned pages inside it, so a buffer
// smaller than one huge page is never advised and one of at least two
// huge pages always is, wherever the allocator places it.
func TestHugeInterior(t *testing.T) {
	const base = 64 * hugePage
	for _, off := range []uintptr{0, 8, CacheLine, 4096, hugePage / 2, hugePage - 8} {
		addr := base + off
		for _, size := range []uintptr{0, 1, CacheLine, 1 << 20, hugePage - 1} {
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

// Alignment holds on both sides of the huge-page threshold, for real
// storage and for the misaligned control arm.
func TestAlignedAcrossHugeThreshold(t *testing.T) {
	for _, bytes := range []int{hugePage / 2, 4 << 20} {
		n := bytes / 8
		if s := Aligned[uint64](n); len(s) != n || !IsAligned(s) {
			t.Errorf("Aligned(%d bytes): len %d, aligned %v", bytes, len(s), IsAligned(s))
		}
		if s := Misaligned[uint64](n); len(s) != n || addrOf(s)%CacheLine != 8 {
			t.Errorf("Misaligned(%d bytes): len %d, addr %% %d = %d", bytes, len(s), CacheLine, addrOf(s)%CacheLine)
		}
	}
}
