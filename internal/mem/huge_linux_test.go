package mem

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
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

// anonHugeKB sums AnonHugePages over the mappings of /proc/self/smaps that
// overlap [addr, addr+size).
func anonHugeKB(t *testing.T, addr, size uintptr) int {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	total, overlap := 0, false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if lo, hi, ok := strings.Cut(fields[0], "-"); ok && !strings.HasSuffix(fields[0], ":") {
			start, err1 := strconv.ParseUint(lo, 16, 64)
			end, err2 := strconv.ParseUint(hi, 16, 64)
			if err1 == nil && err2 == nil {
				overlap = uintptr(start) < addr+size && addr < uintptr(end)
				continue
			}
		}
		if overlap && fields[0] == "AnonHugePages:" {
			kb, err := strconv.Atoi(fields[1])
			if err != nil {
				t.Fatalf("smaps line %q: %v", line, err)
			}
			total += kb
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return total
}

// A touched allocation covering whole huge pages is backed by them, for
// real storage and for the misaligned benchmark control arm alike.
func TestLargeAllocationGetsHugePages(t *testing.T) {
	skipWithoutTHP(t)
	const bytes = 8 << 20
	for name, alloc := range map[string]func(int) []uint64{
		"Aligned":    Aligned[uint64],
		"Misaligned": Misaligned[uint64],
	} {
		s := alloc(bytes / 8)
		for i := range s {
			s[i] = uint64(i)
		}
		if kb := anonHugeKB(t, addrOf(s), bytes); kb == 0 {
			t.Errorf("%s(%d MiB): AnonHugePages 0 kB over its range", name, bytes>>20)
		}
		runtime.KeepAlive(s)
	}
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
		s := Aligned[uint64](n)
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
