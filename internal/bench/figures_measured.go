package bench

import (
	"fmt"
	"time"

	"perfilter/internal/blocked"
	"perfilter/internal/calibrate"
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

// build constructs and fills c at mBits with calibrate's primitive; an
// error is a bug in the experiment's configuration.
func build(c model.Config, mBits uint64) core.Filter {
	f, err := calibrate.Build(c, mBits)
	if err != nil {
		panic(err)
	}
	return f
}

func bloomConfig(p blocked.Params) model.Config {
	return model.Config{Kind: model.KindBlockedBloom, Bloom: p}
}

func cuckooConfig(p cuckoo.Params) model.Config {
	return model.Config{Kind: model.KindCuckoo, Cuckoo: p}
}

// cycles is p's cost per batched lookup in cycles, as calibrate times it.
func cycles(p core.BatchProber, eff Effort) float64 {
	return calibrate.NsPerLookup(p, eff.MinTime) * host().CyclesPerNs
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
	blockedSeries := Series{Name: "blocked-one-sector", XLabel: "words-per-block", YLabel: "Mlookups/s"}
	sectorSeries := Series{Name: "sectorized", XLabel: "words-per-block", YLabel: "Mlookups/s"}
	for _, wpb := range []uint32{1, 2, 4, 8, 16} {
		blockBits := wpb * 32
		// One sector spanning the whole block (random access, Listing 1).
		fb := build(bloomConfig(blocked.Params{WordBits: 32, BlockBits: blockBits,
			SectorBits: blockBits, Z: 1, K: k}), sizeBits)
		blockedSeries.X = append(blockedSeries.X, float64(wpb))
		blockedSeries.Y = append(blockedSeries.Y,
			probeThroughput(fb.ContainsBatch, threads, eff.MinTime)/1e6)
		// Word-sized sectors (sequential access, Listing 2 per word).
		fs := build(bloomConfig(blocked.Params{WordBits: 32, BlockBits: blockBits,
			SectorBits: 32, Z: wpb, K: k}), sizeBits)
		sectorSeries.X = append(sectorSeries.X, float64(wpb))
		sectorSeries.Y = append(sectorSeries.Y,
			probeThroughput(fs.ContainsBatch, threads, eff.MinTime)/1e6)
	}
	return []Series{blockedSeries, sectorSeries}
}

// Fig9MagicModulo reproduces Figure 9: lookup cost across filter sizes for
// the cache-sectorized filter (k=8, B=512, z=2), power-of-two vs magic
// sizes. Magic fills the gaps between the power-of-two points; around
// cache-capacity boundaries the flexibility wins, and its overhead
// elsewhere stays modest.
func Fig9MagicModulo(maxBits uint64, eff Effort) []Series {
	pow2 := Series{Name: "pow2", XLabel: "filter-MiB", YLabel: "cycles/lookup"}
	magic := Series{Name: "magic", XLabel: "filter-MiB", YLabel: "cycles/lookup"}
	for mBits := uint64(1 << 20); mBits <= maxBits; mBits = mBits * 5 / 4 {
		p := blocked.CacheSectorizedParams(32, 512, 2, 8, false)
		if mBits&(mBits-1) == 0 {
			pow2.X = append(pow2.X, float64(mBits)/8/(1<<20))
			pow2.Y = append(pow2.Y, cycles(build(bloomConfig(p), mBits), eff))
		}
		p.Magic = true
		magic.X = append(magic.X, float64(mBits)/8/(1<<20))
		magic.Y = append(magic.Y, cycles(build(bloomConfig(p), mBits), eff))
	}
	return []Series{magic, pow2}
}

// Fig14LookupScaling reproduces Figure 14: cycles per lookup across filter
// sizes for the paper's three representative filters (register-blocked
// B=32 k=4; cache-sectorized B=512 k=8 z=2; cuckoo b=2 l=16).
func Fig14LookupScaling(minBits, maxBits uint64, eff Effort) []Series {
	entries := []struct {
		name string
		c    model.Config
	}{
		{"register-blocked(B=32,k=4)", bloomConfig(blocked.RegisterBlockedParams(32, 4, false))},
		{"cache-sectorized(B=512,k=8,z=2)", bloomConfig(blocked.CacheSectorizedParams(32, 512, 2, 8, false))},
		{"cuckoo(b=2,l=16)", cuckooConfig(cuckoo.Params{TagBits: 16, BucketSize: 2})},
	}
	var out []Series
	for _, e := range entries {
		s := Series{Name: e.name, XLabel: "filter-KiB", YLabel: "cycles/lookup"}
		for mBits := minBits; mBits <= maxBits; mBits *= 4 {
			s.X = append(s.X, float64(mBits)/8/1024)
			s.Y = append(s.Y, cycles(build(e.c, mBits), eff))
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
	pairs := []struct {
		name string
		c    func(magic bool) model.Config
	}{
		{"cuckoo(b=2,l=16)", func(m bool) model.Config {
			return cuckooConfig(cuckoo.Params{TagBits: 16, BucketSize: 2, Magic: m})
		}},
		{"register-blocked(B=32,k=4)", func(m bool) model.Config {
			return bloomConfig(blocked.RegisterBlockedParams(32, 4, m))
		}},
		{"cache-sectorized(B=512,k=8,z=2)", func(m bool) model.Config {
			return bloomConfig(blocked.CacheSectorizedParams(32, 512, 2, 8, m))
		}},
	}
	var rows []Fig15Row
	for _, p := range pairs {
		row := Fig15Row{Filter: p.name}
		fp := build(p.c(false), mBits)
		row.ScalarPow2Cycles = cycles(scalar{fp}, eff)
		row.BatchPow2Cycles = cycles(fp, eff)
		row.SpeedupPow2 = row.ScalarPow2Cycles / row.BatchPow2Cycles
		fm := build(p.c(true), mBits)
		row.ScalarMagicCycles = cycles(scalar{fm}, eff)
		row.BatchMagicCycles = cycles(fm, eff)
		row.SpeedupMagic = row.ScalarMagicCycles / row.BatchMagicCycles
		rows = append(rows, row)
	}
	return rows
}

// scalar probes a batch one Contains call per key, so the timing loop
// times the filter's one-key-at-a-time path.
type scalar struct{ f core.Filter }

func (s scalar) ContainsBatch(keys []core.Key, sel core.SelVec) core.SelVec {
	for i, k := range keys {
		if s.f.Contains(k) {
			sel = append(sel, uint32(i))
		}
	}
	return sel
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
	s := Series{Name: fmt.Sprintf("cuckoo-rho(tw=%g)", tw),
		XLabel: "bucket-size", YLabel: "overhead-cycles"}
	const n = 40000
	for _, b := range []uint32{1, 2, 4} {
		p := cuckoo.Params{TagBits: 12, BucketSize: b, Magic: true}
		f := build(cuckooConfig(p), p.SizeForKeys(n))
		s.X = append(s.X, float64(b))
		s.Y = append(s.Y, model.Overhead(cycles(f, eff), f.FPR(n), tw))
	}
	return s
}

// AblationBatchWidthNote: the batch kernels' unroll width is a compile-time
// constant (simd.Width); the root bench_test.go measures the batch-vs-scalar
// ratio instead, which is the observable consequence of the width choice.
