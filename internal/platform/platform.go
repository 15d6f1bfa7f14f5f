// Package platform detects the host's cache hierarchy and estimates its
// clock rate so measurements can be reported in CPU cycles, the unit the
// paper uses throughout.
//
// Cache sizes are read from sysfs (Linux); when unavailable, the defaults
// fall back to a common desktop hierarchy (32 KiB / 1 MiB / 16 MiB). The
// cycle rate is estimated by timing a serially dependent integer-add chain:
// each iteration carries a data dependency, so modern cores retire almost
// exactly one iteration per cycle, making elapsed-nanoseconds → cycles a
// stable conversion without access to the TSC (which pure Go cannot read
// without assembly, and this module has none).
package platform

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Info describes the host (or a simulated platform preset in the model
// package).
type Info struct {
	// Name is a human-readable CPU identifier.
	Name string
	// L1, L2, L3 are per-core data-cache capacities in bytes (L3 typically
	// shared; 0 means the level is absent, as on Knights Landing).
	L1, L2, L3 uint64
	// Cores is the logical CPU count available to the process.
	Cores int
	// CyclesPerNs converts nanoseconds to CPU cycles.
	CyclesPerNs float64
}

// String renders the platform like the paper's Table 1 rows.
func (i Info) String() string {
	return fmt.Sprintf("%s: L1=%s L2=%s L3=%s cores=%d %.2f GHz(est)",
		i.Name, fmtBytes(i.L1), fmtBytes(i.L2), fmtBytes(i.L3),
		i.Cores, i.CyclesPerNs)
}

func fmtBytes(b uint64) string {
	switch {
	case b == 0:
		return "-"
	case b >= 1<<20:
		return fmt.Sprintf("%dMiB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKiB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// Detect gathers host information. It is inexpensive enough to call once at
// startup; the cycle estimation takes a few milliseconds.
func Detect() Info {
	info := Info{
		Name:  cpuName(),
		L1:    32 << 10,
		L2:    1 << 20,
		L3:    16 << 20,
		Cores: runtime.NumCPU(),
	}
	if l1, ok := sysfsCache(0, "index0"); ok {
		info.L1 = l1
	}
	if l2, ok := sysfsCache(0, "index2"); ok {
		info.L2 = l2
	}
	if l3, ok := sysfsCache(0, "index3"); ok {
		info.L3 = l3
	} else {
		info.L3 = 0
		if l3b, ok := sysfsCache(0, "index4"); ok {
			info.L3 = l3b
		}
		if info.L3 == 0 {
			info.L3 = 16 << 20
		}
	}
	info.CyclesPerNs = EstimateCyclesPerNs()
	return info
}

// cpuName extracts the model name from /proc/cpuinfo, if present.
func cpuName() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, after, found := strings.Cut(line, ":"); found {
				return strings.TrimSpace(after)
			}
		}
	}
	return runtime.GOARCH
}

// sysfsCache reads one cache level's size for a CPU from sysfs.
func sysfsCache(cpu int, index string) (uint64, bool) {
	path := fmt.Sprintf("/sys/devices/system/cpu/cpu%d/cache/%s/size", cpu, index)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	s := strings.TrimSpace(string(data))
	mult := uint64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil || v == 0 {
		return 0, false
	}
	return v * mult, true
}

// EstimateCyclesPerNs times a dependent add chain. The chain length is long
// enough to amortize timer overhead; the best of several runs suppresses
// scheduling noise.
func EstimateCyclesPerNs() float64 {
	const iters = 2_000_000
	best := 1e18
	for run := 0; run < 5; run++ {
		start := time.Now()
		x := uint64(1)
		for i := uint64(0); i < iters; i++ {
			// Serial dependency on x: one add retires per cycle. Adding the
			// loop variable (a value the compiler does not fold into a
			// closed form) keeps the chain alive.
			x += i
		}
		elapsed := float64(time.Since(start).Nanoseconds())
		if x == 0 { // defeat dead-code elimination
			return 1
		}
		if elapsed < best {
			best = elapsed
		}
	}
	cpns := iters / best
	// Clamp to plausible hardware (0.5 – 6 GHz) in case of a degenerate
	// environment (e.g. heavily throttled container).
	if cpns < 0.5 {
		cpns = 0.5
	}
	if cpns > 6 {
		cpns = 6
	}
	return cpns
}

// Cycles converts a duration to estimated CPU cycles on this platform.
func (i Info) Cycles(d time.Duration) float64 {
	return float64(d.Nanoseconds()) * i.CyclesPerNs
}
