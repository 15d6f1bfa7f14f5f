package bench

import (
	"fmt"
	"time"

	"perfilter/internal/blocked"
	"perfilter/internal/core"
	"perfilter/internal/cuckoo"
	"perfilter/internal/model"
)

// Effort controls measurement duration (quick for tests/benches, long for
// the CLI's publication-quality runs).
type Effort struct {
	MinTime time.Duration
	Threads int // 0 = all cores (only Figure 5 is multithreaded)
}

// QuickEffort keeps every measured figure under a few seconds.
func QuickEffort() Effort { return Effort{MinTime: 2 * time.Millisecond} }

// FullEffort is the CLI default.
func FullEffort() Effort { return Effort{MinTime: 100 * time.Millisecond} }

// maxFill caps the keys inserted while building measurement filters. The
// branch-free kernels' lookup cost is load-independent (every probe reads
// the same words regardless of their content), so capping keeps huge-filter
// experiments affordable without changing what is measured.
const maxFill = 2 << 20

// buildBlocked constructs and fills a blocked filter at 12 bits/key.
func buildBlocked(p blocked.Params, mBits uint64) blocked.Probe {
	f, err := blocked.New(p, mBits)
	if err != nil {
		panic(err)
	}
	n := int(mBits / 12)
	if n > maxFill {
		n = maxFill
	}
	fill(func(k core.Key) bool { f.Insert(k); return true }, n, 0xF11)
	return f
}

// buildCuckoo constructs and fills a cuckoo filter to 80% of its load limit.
func buildCuckoo(p cuckoo.Params, mBits uint64) *cuckoo.Filter {
	f, err := cuckoo.New(p, mBits)
	if err != nil {
		panic(err)
	}
	n := int(0.8 * float64(f.NumBuckets()) * float64(p.BucketSize))
	if n > maxFill {
		n = maxFill
	}
	fill(func(k core.Key) bool { return f.Insert(k) == nil }, n, 0xF11)
	return f
}

// Fig5Sectorization reproduces Figure 5: multi-threaded lookup throughput
// for blocked filters with one sector vs word-sectorized filters, as the
// block size grows from one word to a cache line. sizeBits selects the
// cache- or DRAM-resident panel (the paper uses 16 KiB and 256 MiB).
func Fig5Sectorization(sizeBits uint64, k uint32, eff Effort) []Series {
	threads := eff.Threads
	if threads <= 0 {
		threads = host().Cores
	}
	probe := probeKeys(core.DefaultBatch, 0xABC)
	blockedSeries := Series{Name: "blocked-one-sector", XLabel: "words-per-block", YLabel: "Mlookups/s"}
	sectorSeries := Series{Name: "sectorized", XLabel: "words-per-block", YLabel: "Mlookups/s"}
	for _, wpb := range []uint32{1, 2, 4, 8, 16} {
		blockBits := wpb * 32
		// One sector spanning the whole block (random access, Listing 1).
		pb := blocked.Params{WordBits: 32, BlockBits: blockBits,
			SectorBits: blockBits, Z: 1, K: k}
		fb := buildBlocked(pb, sizeBits)
		blockedSeries.X = append(blockedSeries.X, float64(wpb))
		blockedSeries.Y = append(blockedSeries.Y,
			measureThroughput(fb, probe, threads, eff.MinTime)/1e6)
		// Word-sized sectors (sequential access, Listing 2 per word).
		ps := blocked.Params{WordBits: 32, BlockBits: blockBits,
			SectorBits: 32, Z: wpb, K: k}
		if err := ps.Validate(); err != nil {
			panic(err)
		}
		fs := buildBlocked(ps, sizeBits)
		sectorSeries.X = append(sectorSeries.X, float64(wpb))
		sectorSeries.Y = append(sectorSeries.Y,
			measureThroughput(fs, probe, threads, eff.MinTime)/1e6)
	}
	return []Series{blockedSeries, sectorSeries}
}

// Fig9MagicModulo reproduces Figure 9: lookup cost across filter sizes for
// the cache-sectorized filter (k=8, B=512, z=2), power-of-two vs magic
// sizes. Magic fills the gaps between the power-of-two points; around
// cache-capacity boundaries the flexibility wins, and its overhead
// elsewhere stays modest.
func Fig9MagicModulo(maxBits uint64, eff Effort) []Series {
	h := host()
	probe := probeKeys(core.DefaultBatch, 0x919)
	pow2 := Series{Name: "pow2", XLabel: "filter-MiB", YLabel: "cycles/lookup"}
	magic := Series{Name: "magic", XLabel: "filter-MiB", YLabel: "cycles/lookup"}
	for mBits := uint64(1 << 20); mBits <= maxBits; mBits = mBits * 5 / 4 {
		p := blocked.CacheSectorizedParams(32, 512, 2, 8, false)
		isPow2 := mBits&(mBits-1) == 0
		if isPow2 {
			f := buildBlocked(p, mBits)
			ns := measureBatchNs(f, probe, eff.MinTime)
			pow2.X = append(pow2.X, float64(mBits)/8/(1<<20))
			pow2.Y = append(pow2.Y, ns*h.CyclesPerNs)
		}
		pm := p
		pm.Magic = true
		fm := buildBlocked(pm, mBits)
		ns := measureBatchNs(fm, probe, eff.MinTime)
		magic.X = append(magic.X, float64(mBits)/8/(1<<20))
		magic.Y = append(magic.Y, ns*h.CyclesPerNs)
	}
	return []Series{magic, pow2}
}

// Fig14LookupScaling reproduces Figure 14: cycles per lookup across filter
// sizes for the paper's three representative filters (register-blocked
// B=32 k=4; cache-sectorized B=512 k=8 z=2; cuckoo b=2 l=16).
func Fig14LookupScaling(minBits, maxBits uint64, eff Effort) []Series {
	h := host()
	probe := probeKeys(core.DefaultBatch, 0x1414)
	type entry struct {
		name  string
		build func(mBits uint64) core.BatchProber
	}
	entries := []entry{
		{"register-blocked(B=32,k=4)", func(m uint64) core.BatchProber {
			return buildBlocked(blocked.RegisterBlockedParams(32, 4, false), m)
		}},
		{"cache-sectorized(B=512,k=8,z=2)", func(m uint64) core.BatchProber {
			return buildBlocked(blocked.CacheSectorizedParams(32, 512, 2, 8, false), m)
		}},
		{"cuckoo(b=2,l=16)", func(m uint64) core.BatchProber {
			return buildCuckoo(cuckoo.Params{TagBits: 16, BucketSize: 2}, m)
		}},
	}
	var out []Series
	for _, e := range entries {
		s := Series{Name: e.name, XLabel: "filter-KiB", YLabel: "cycles/lookup"}
		for mBits := minBits; mBits <= maxBits; mBits *= 4 {
			f := e.build(mBits)
			ns := measureBatchNs(f, probe, eff.MinTime)
			s.X = append(s.X, float64(mBits)/8/1024)
			s.Y = append(s.Y, ns*h.CyclesPerNs)
		}
		out = append(out, s)
	}
	return out
}

// Fig15Row is one bar group of Figure 15: a filter's scalar and batched
// lookup costs with power-of-two and magic addressing, on an L1-resident
// filter, single-threaded.
type Fig15Row struct {
	Filter            string
	ScalarPow2Cycles  float64
	BatchPow2Cycles   float64
	SpeedupPow2       float64
	ScalarMagicCycles float64
	BatchMagicCycles  float64
	SpeedupMagic      float64
}

// Fig15BatchSpeedup reproduces Figure 15 on the host: the batched
// ("software SIMD") kernels against one-key-at-a-time lookups for the three
// representative filters. The paper's hardware-SIMD speedups reach 10×;
// pure-Go batching is bounded by loop/branch amortization — package simd
// explains the gap.
func Fig15BatchSpeedup(eff Effort) []Fig15Row {
	const mBits = 16 << 10 * 8 // 16 KiB, L1-resident
	h := host()
	probe := probeKeys(core.DefaultBatch, 0x1515)
	type filterPair struct {
		name string
		mk   func(useMagic bool) prober
	}
	pairs := []filterPair{
		{"cuckoo(b=2,l=16)", func(m bool) prober {
			return buildCuckoo(cuckoo.Params{TagBits: 16, BucketSize: 2, Magic: m}, mBits)
		}},
		{"register-blocked(B=32,k=4)", func(m bool) prober {
			return buildBlocked(blocked.RegisterBlockedParams(32, 4, m), mBits).(prober)
		}},
		{"cache-sectorized(B=512,k=8,z=2)", func(m bool) prober {
			return buildBlocked(blocked.CacheSectorizedParams(32, 512, 2, 8, m), mBits).(prober)
		}},
	}
	var rows []Fig15Row
	for _, p := range pairs {
		row := Fig15Row{Filter: p.name}
		fp := p.mk(false)
		row.ScalarPow2Cycles = measureScalarNs(fp, probe, eff.MinTime) * h.CyclesPerNs
		row.BatchPow2Cycles = measureBatchNs(fp, probe, eff.MinTime) * h.CyclesPerNs
		row.SpeedupPow2 = row.ScalarPow2Cycles / row.BatchPow2Cycles
		fm := p.mk(true)
		row.ScalarMagicCycles = measureScalarNs(fm, probe, eff.MinTime) * h.CyclesPerNs
		row.BatchMagicCycles = measureBatchNs(fm, probe, eff.MinTime) * h.CyclesPerNs
		row.SpeedupMagic = row.ScalarMagicCycles / row.BatchMagicCycles
		rows = append(rows, row)
	}
	return rows
}

// FormatFig15 renders Figure 15 rows as a table.
func FormatFig15(rows []Fig15Row) string {
	out := fmt.Sprintf("%-34s %12s %12s %8s %12s %12s %8s\n",
		"filter", "scalar-pow2", "batch-pow2", "speedup", "scalar-magic", "batch-magic", "speedup")
	for _, r := range rows {
		out += fmt.Sprintf("%-34s %12.2f %12.2f %8.2f %12.2f %12.2f %8.2f\n",
			r.Filter, r.ScalarPow2Cycles, r.BatchPow2Cycles, r.SpeedupPow2,
			r.ScalarMagicCycles, r.BatchMagicCycles, r.SpeedupMagic)
	}
	return out + "(cycles per lookup, 16 KiB filters, single thread)\n"
}

// AblationCuckooBucket measures the paper's b=2-beats-b=4 finding (§6,
// Fig. 13b) directly: overhead ρ at a mid-range tw for bucket sizes 1, 2
// and 4 at equal memory budget.
func AblationCuckooBucket(tw float64, eff Effort) Series {
	h := host()
	probe := probeKeys(core.DefaultBatch, 0xB0B)
	s := Series{Name: fmt.Sprintf("cuckoo-rho(tw=%g)", tw),
		XLabel: "bucket-size", YLabel: "overhead-cycles"}
	const n = 40000
	for _, b := range []uint32{1, 2, 4} {
		p := cuckoo.Params{TagBits: 12, BucketSize: b, Magic: true}
		mBits := p.SizeForKeys(n)
		f, err := cuckoo.New(p, mBits)
		if err != nil {
			panic(err)
		}
		fill(func(k core.Key) bool { return f.Insert(k) == nil }, n, 0xB0B1)
		ns := measureBatchNs(f, probe, eff.MinTime)
		rho := model.Overhead(ns*h.CyclesPerNs, f.FPR(n), tw)
		s.X = append(s.X, float64(b))
		s.Y = append(s.Y, rho)
	}
	return s
}

// AblationBatchWidthNote: the batch kernels' unroll width is a compile-time
// constant (simd.Width); the root bench_test.go measures the batch-vs-scalar
// ratio instead, which is the observable consequence of the width choice.
