package model

import (
	"fmt"

	"perfilter/internal/platform"
)

// CostModel produces the lookup-cost term tl of Eq. 1, in CPU cycles per
// key for batched lookups, for a configuration at a given filter size.
type CostModel interface {
	// LookupCycles estimates/measures tl for config c at size mBits.
	LookupCycles(c Config, mBits uint64) float64
	// Name identifies the model (platform preset or "measured(host)").
	Name() string
}

// Machine is the analytic cost model: a simulated platform described by its
// cache hierarchy, effective access costs, and SIMD capability. It stands
// in for the hardware of the paper's Table 1, which a reproduction cannot
// assume it runs on; calibrate.MeasuredModel (the filter-calibrate CLI)
// measures the actual host instead. All latency fields are *effective* cycles per random
// cache-line access under the memory-level parallelism of a batched kernel,
// not raw load-to-use latencies.
type Machine struct {
	// MachineName identifies the preset.
	MachineName string
	// L1, L2, L3 are capacities in bytes (L3 == 0 means absent, as on KNL).
	L1, L2, L3 uint64
	// LatL1..LatMem are effective cycles per line access served by each
	// level.
	LatL1, LatL2, LatL3, LatMem float64
	// SIMDBits is the vector width (256 for AVX2, 512 for AVX-512).
	SIMDBits uint32
	// GatherEff discounts the SIMD speedup for platforms with slow GATHER
	// (≈1 on Intel, low on Ryzen, where the paper measured <50% gains).
	GatherEff float64
	// CuckooSIMDPenalty further discounts cuckoo SIMD (KNL lacks
	// AVX-512BW, forcing mixed AVX2/AVX-512 sequences, §6.1).
	CuckooSIMDPenalty float64
	// GHz is the nominal clock, for converting to wall time in reports.
	GHz float64
	// Threads is the thread count the paper used on this platform.
	Threads int
}

// Name implements CostModel.
func (m Machine) Name() string { return m.MachineName }

// LookupCycles implements CostModel with the batched (SIMD) kernels.
func (m Machine) LookupCycles(c Config, mBits uint64) float64 {
	return m.Cycles(c, mBits, true)
}

// ScalarLookupCycles estimates the one-key-at-a-time cost (the baseline of
// the paper's Figure 15 SIMD-speedup comparison).
func (m Machine) ScalarLookupCycles(c Config, mBits uint64) float64 {
	return m.Cycles(c, mBits, false)
}

// Cycles is the full cost function. The structure mirrors the paper's
// qualitative analysis:
//
//	tl = cpu(F)/simdSpeedup(F) + lines(F)·memCost(m)
//
// cpu grows with consumed hash bits, words touched and the modulo choice;
// memCost interpolates across the cache hierarchy by the probability that a
// uniformly random line of an m-bit filter resides in each level.
// Each family's term lives in its spec file (spec_<family>.go).
func (m Machine) Cycles(c Config, mBits uint64, simd bool) float64 {
	if sp := specOf(c.Kind); sp != nil {
		return sp.cycles(m, c, mBits, simd)
	}
	return 0
}

// XorBuildCyclesPerKey is the modeled construction cost of the xor/fuse
// family: hashing, the peeling pass and the reverse assignment are all
// O(n) with small constants, but the build touches every slot several
// times with poor locality. The advisor amortizes this over the lookup
// budget — an immutable filter pays ≈ XorBuildCyclesPerKey/tw extra
// cycles per lookup (one rebuild per ~tw probes per key), so at small tw
// the rebuild surcharge prices xor out and at large tw it vanishes. See
// XorBuildSurcharge.
const XorBuildCyclesPerKey = 150.0

// XorBuildSurcharge returns the per-lookup rebuild surcharge added to the
// xor family's overhead ρ (Eq. 1 has no build term because mutable
// filters build incrementally; an immutable filter must re-peel from the
// key log instead).
func XorBuildSurcharge(tw float64) float64 {
	if tw <= 0 {
		return XorBuildCyclesPerKey
	}
	return XorBuildCyclesPerKey / tw
}

// simdSpeedup returns the effective lane-parallel speedup for a kernel
// whose lanes are laneBits wide. extraPenalty ∈ [0,1] further discounts
// (cuckoo on KNL); 0 means no extra penalty.
func (m Machine) simdSpeedup(laneBits uint32, extraPenalty float64) float64 {
	lanes := float64(m.SIMDBits) / float64(laneBits)
	eff := m.GatherEff
	if extraPenalty > 0 {
		eff *= extraPenalty
	}
	s := lanes * eff
	if s < 1 {
		return 1
	}
	return s
}

// modCost returns the cycles of the index-reduction sequence: a bitwise AND
// for powers of two, the multiply-shift-subtract sequence (Eq. 9) for magic
// modulo, per reduction performed.
func (m Machine) modCost(useMagic bool, reductions float64) float64 {
	if useMagic {
		return 2.0 * reductions
	}
	return 0.5 * reductions
}

// memCost returns effective cycles per cache-line access for a structure of
// mBytes, assuming uniformly random line accesses: the fraction of the
// structure resident in each level serves that fraction of accesses.
func (m Machine) memCost(mBytes float64) float64 {
	p1 := clamp01(float64(m.L1) / mBytes)
	p2 := clamp01(float64(m.L2)/mBytes) - p1
	var p3 float64
	if m.L3 > 0 {
		p3 = clamp01(float64(m.L3)/mBytes) - p1 - p2
	}
	pm := 1 - p1 - p2 - p3
	return p1*m.LatL1 + p2*m.LatL2 + p3*m.LatL3 + pm*m.LatMem
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// The paper's Table 1 platforms as analytic presets. Cache capacities and
// SIMD widths are from the table; effective access costs follow the
// platforms' documented microarchitectural behaviour (Intel optimization
// manual / AMD 17h guide, [1, 18] in the paper) under batched access.

// Xeon returns the Intel Xeon E5-2680v4 (Broadwell, AVX2) preset.
func Xeon() Machine {
	return Machine{
		MachineName: "Xeon E5-2680v4", GHz: 2.4, Threads: 14,
		L1: 32 << 10, L2: 256 << 10, L3: 35 << 20,
		LatL1: 0.5, LatL2: 2.0, LatL3: 8.0, LatMem: 42,
		SIMDBits: 256, GatherEff: 1.0, CuckooSIMDPenalty: 1.0,
	}
}

// KNL returns the Intel Xeon Phi 7210 (Knights Landing, AVX-512, no L3,
// no AVX-512BW) preset.
func KNL() Machine {
	return Machine{
		MachineName: "Knights Landing 7210", GHz: 1.3, Threads: 128,
		L1: 64 << 10, L2: 1 << 20, L3: 0,
		LatL1: 0.7, LatL2: 3.0, LatL3: 0, LatMem: 55,
		SIMDBits: 512, GatherEff: 0.9, CuckooSIMDPenalty: 0.45,
	}
}

// SKX returns the Intel i9-7900X (Skylake-X, AVX-512) preset — the paper's
// default evaluation platform.
func SKX() Machine {
	return Machine{
		MachineName: "Skylake-X i9-7900X", GHz: 3.3, Threads: 10,
		L1: 32 << 10, L2: 1 << 20, L3: 14 << 20,
		LatL1: 0.5, LatL2: 2.0, LatL3: 8.0, LatMem: 40,
		SIMDBits: 512, GatherEff: 1.0, CuckooSIMDPenalty: 1.0,
	}
}

// Ryzen returns the AMD Ryzen Threadripper 1950X (Zen, AVX2 with slow
// gather) preset.
func Ryzen() Machine {
	return Machine{
		MachineName: "Ryzen 1950X", GHz: 3.4, Threads: 16,
		L1: 32 << 10, L2: 512 << 10, L3: 32 << 20,
		LatL1: 0.5, LatL2: 2.5, LatL3: 10.0, LatMem: 45,
		// §6.1: "barely any significant speedups on Ryzen (mostly less
		// than 50%)", attributed to the poorly performing gather.
		SIMDBits: 256, GatherEff: 0.18, CuckooSIMDPenalty: 1.0,
	}
}

// Presets returns the paper's four platforms in Table 1 order.
func Presets() []Machine {
	return []Machine{Xeon(), KNL(), SKX(), Ryzen()}
}

// HostMachine builds an analytic preset from the detected host, assuming
// AVX2-class SIMD at full gather efficiency. Used when no calibration data
// is available.
func HostMachine() Machine {
	info := platform.Detect()
	return Machine{
		MachineName: fmt.Sprintf("host(%s)", info.Name),
		GHz:         info.CyclesPerNs, Threads: info.Cores,
		L1: info.L1, L2: info.L2, L3: info.L3,
		LatL1: 0.5, LatL2: 2.0, LatL3: 8.0, LatMem: 42,
		SIMDBits: 256, GatherEff: 1.0, CuckooSIMDPenalty: 1.0,
	}
}
