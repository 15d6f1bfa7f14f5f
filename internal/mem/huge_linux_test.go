package mem

import (
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// skipWithoutTHP skips when the kernel cannot honour huge-page advice.
func skipWithoutTHP(t *testing.T) {
	t.Helper()
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil {
		t.Skipf("transparent huge pages unavailable: %v", err)
	}
	if bytes.Contains(mode, []byte("[never]")) {
		t.Skip("transparent huge pages disabled: mode [never]")
	}
}

// mapping is one /proc/self/smaps entry: the range [start, end), its
// AnonHugePages in kB, and whether its VmFlags carry "hg", the flag
// madvise(MADV_HUGEPAGE) sets.
type mapping struct {
	start, end uintptr
	hugeKB     int
	advised    bool
}

// smaps parses the mappings of /proc/self/smaps that overlap [lo, hi).
func smaps(t *testing.T, lo, hi uintptr) []mapping {
	t.Helper()
	b, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		t.Fatal(err)
	}
	var out []mapping
	in := false // the current mapping overlaps [lo, hi)
	for _, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		if a, z, ok := strings.Cut(fields[0], "-"); ok && !strings.HasSuffix(fields[0], ":") {
			start, err1 := strconv.ParseUint(a, 16, 64)
			end, err2 := strconv.ParseUint(z, 16, 64)
			if in = err1 == nil && err2 == nil && uintptr(start) < hi && lo < uintptr(end); in {
				out = append(out, mapping{start: uintptr(start), end: uintptr(end)})
			}
			continue
		}
		if !in {
			continue
		}
		switch m := &out[len(out)-1]; fields[0] {
		case "AnonHugePages:":
			if m.hugeKB, err = strconv.Atoi(fields[1]); err != nil {
				t.Fatalf("smaps line %q: %v", line, err)
			}
		case "VmFlags:":
			m.advised = slices.Contains(fields[1:], "hg")
		}
	}
	return out
}

// What the code controls, asserted exactly whatever the host grants:
// mappings carrying the huge-page advice cover the allocation's 2 MiB
// interior.
func TestLargeAllocationAdvisesHugePages(t *testing.T) {
	skipWithoutTHP(t)
	const bytes = 8 << 20
	s := Make[uint64](bytes / 8)
	lo, hi := hugeInterior(addrOf(s), bytes)
	next := lo // the first interior address not yet seen advised
	for _, m := range smaps(t, lo, hi) {
		if m.start <= next && m.advised {
			next = m.end
		}
	}
	if hi-lo < hugePage || next < hi {
		t.Errorf("Make(%d MiB): interior [%#x, %#x) advised only up to %#x", bytes>>20, lo, hi, next)
	}
	runtime.KeepAlive(s)
}

// What the host grants: advised memory is backed by huge pages when it is
// first faulted in. Heap memory reused while still resident as small
// pages keeps them until khugepaged collapses it, on its own schedule, so
// the heap first returns its free memory to the kernel and the
// allocation's pages are faulted in under the advice.
func TestLargeAllocationGetsHugePages(t *testing.T) {
	skipWithoutTHP(t)
	const bytes = 8 << 20
	debug.FreeOSMemory()
	s := Make[uint64](bytes / 8)
	for i := range s {
		s[i] = uint64(i)
	}
	lo, hi := hugeInterior(addrOf(s), bytes)
	kb := 0
	for _, m := range smaps(t, lo, hi) {
		kb += m.hugeKB
	}
	if kb == 0 {
		t.Errorf("Make(%d MiB): AnonHugePages 0 kB over its range", bytes>>20)
	}
	runtime.KeepAlive(s)
}

func mapCount(t *testing.T) int {
	t.Helper()
	b, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(b, []byte("\n"))
}

// Advice splits the heap's mappings wherever an advised range ends. Heap
// addresses are reused after GC, so repeated allocate/drop cycles must
// keep the process's mapping count flat rather than creeping toward
// vm.max_map_count.
func TestHugeAdviceChurnKeepsMappingsBounded(t *testing.T) {
	skipWithoutTHP(t)
	runtime.GC()
	before := mapCount(t)
	for i := 0; i < 1000; i++ {
		// Vary the size so advised ranges start and end at different
		// offsets of the heap from cycle to cycle.
		n := (2*hugePage + (i%7)*hugePage/3 + (i%5)*4096) / 8
		s := Make[uint64](n)
		s[0], s[n-1] = 1, 1
		runtime.KeepAlive(s)
		runtime.GC()
	}
	after := mapCount(t)
	if after > before+32 {
		t.Fatalf("mappings grew from %d to %d over 1000 allocate/drop cycles", before, after)
	}
	t.Logf("mappings: %d before, %d after", before, after)
}
