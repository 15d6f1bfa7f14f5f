package perfilter

// One benchmark per table and figure of the paper's evaluation (§6), plus
// ablations that vary one mechanism at a time (magic vs power-of-two
// addressing, batch width, cuckoo bucket size, sub-word sectors, classic
// short-circuiting). Each benchmark drives the shared
// experiment runners in internal/bench (the cmd/filter-* tools run the
// same code at higher measurement effort) and prints the regenerated
// table/series once, so
//
//	go test -bench=. -benchmem
//
// both measures the harness and emits every reproduced artifact, to be
// read against the paper's figure or table of the same number.

import (
	"fmt"
	"sync"
	"testing"

	"perfilter/internal/bench"
	"perfilter/internal/blocked"
	"perfilter/internal/bloom"
	"perfilter/internal/core"
	"perfilter/internal/model"
	"perfilter/internal/rng"
)

var printedFigures sync.Map

// printFigure emits a regenerated artifact exactly once per process.
func printFigure(name, content string) {
	if _, dup := printedFigures.LoadOrStore(name, true); !dup {
		fmt.Printf("\n===== %s =====\n%s\n", name, content)
	}
}

func BenchmarkTable1Platforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := bench.Table1Platforms()
		printFigure("Table 1: hardware platforms (presets + host)", out)
	}
}

func BenchmarkFig01SkylineSummary(b *testing.B) {
	skx := model.SKX()
	for i := 0; i < b.N; i++ {
		out := bench.Fig1Summary(skx, skx.L3, false)
		printFigure("Figure 1: performance-optimal filter types incl. exact region", out)
	}
}

func BenchmarkFig02JoinPushdown(b *testing.B) {
	// The Fig. 2 scenario measured end-to-end: σ=0.05 probe pipeline with
	// and without pushdown.
	bp := benchWorkload(b)
	ht := benchHashTable(bp)
	filter, err := NewRegisterBlockedBloom(4, uint64(len(bp.build))*12)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range bp.build {
		filter.Insert(k)
	}
	sel := make([]uint32, 0, 1024)
	b.ResetTimer()
	var surv int
	for i := 0; i < b.N; i++ {
		for off := 0; off+1024 <= len(bp.probe); off += 1024 {
			sel = filter.ContainsBatch(bp.probe[off:off+1024], sel[:0])
			for _, pos := range sel {
				if ht.probe(bp.probe[off : off+1024][pos]) {
					surv++
				}
			}
		}
	}
	_ = surv
}

func BenchmarkFig03OverheadCurve(b *testing.B) {
	cfg := model.Config{Kind: model.KindBlockedBloom,
		Bloom: blocked.CacheSectorizedParams(64, 512, 2, 8, true)}
	skx := model.SKX()
	for i := 0; i < b.N; i++ {
		s := bench.Fig3OverheadCurve(cfg, 1<<22, 1024, skx)
		printFigure("Figure 3: overhead rho vs filter size", bench.Format([]bench.Series{s}))
	}
}

func BenchmarkFig04BlockingImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fprOut := bench.Format(bench.Fig4BlockingImpact())
		kOut := bench.Format(bench.Fig4OptimalK())
		printFigure("Figure 4a: FPR impact of blocking", fprOut)
		printFigure("Figure 4b: optimal k", kOut)
	}
}

func BenchmarkFig05Sectorization(b *testing.B) {
	eff := bench.QuickEffort()
	for i := 0; i < b.N; i++ {
		cache := bench.Format(bench.Fig5Sectorization(16<<10*8, 16, eff))
		dram := bench.Format(bench.Fig5Sectorization(64<<20*8, 16, eff))
		printFigure("Figure 5a: sectorization throughput, 16 KiB filter", cache)
		printFigure("Figure 5b: sectorization throughput, 64 MiB filter", dram)
	}
}

func BenchmarkFig07SectorizationFPR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := bench.Format(bench.Fig7SectorizationFPR())
		printFigure("Figure 7: sectorized vs cache-sectorized FPR", out)
	}
}

func BenchmarkFig08CuckooFPR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := bench.Format(bench.Fig8CuckooFPR())
		printFigure("Figure 8: cuckoo FPR by signature length and bucket size", out)
	}
}

func BenchmarkFig09MagicModulo(b *testing.B) {
	eff := bench.QuickEffort()
	for i := 0; i < b.N; i++ {
		out := bench.Format(bench.Fig9MagicModulo(1<<26, eff))
		printFigure("Figure 9: magic vs pow2 lookup cost across sizes", out)
	}
}

func BenchmarkFig10Skylines(b *testing.B) {
	models := []model.CostModel{model.Xeon(), model.KNL(), model.SKX(), model.Ryzen()}
	for i := 0; i < b.N; i++ {
		out := bench.Fig10Skylines(models, false)
		printFigure("Figure 10: skylines of performance-optimal filter types", out)
	}
}

func BenchmarkFig11SpeedupFPR(b *testing.B) {
	skx := model.SKX()
	for i := 0; i < b.N; i++ {
		out := bench.Fig11SpeedupAndFPR(skx, false)
		printFigure("Figure 11: winner speedups and FPR (SKX)", out)
	}
}

func BenchmarkFig12BloomConfigSkyline(b *testing.B) {
	skx := model.SKX()
	caches := [3]uint64{skx.L1, skx.L2, skx.L3}
	for i := 0; i < b.N; i++ {
		out := bench.Fig12BloomFacets(skx, caches, false)
		printFigure("Figure 12: winning Bloom configuration facets (SKX)", out)
	}
}

func BenchmarkFig13CuckooConfigSkyline(b *testing.B) {
	skx := model.SKX()
	caches := [3]uint64{skx.L1, skx.L2, skx.L3}
	for i := 0; i < b.N; i++ {
		out := bench.Fig13CuckooFacets(skx, caches, false)
		printFigure("Figure 13: winning Cuckoo configuration facets (SKX)", out)
	}
}

func BenchmarkFig14LookupScaling(b *testing.B) {
	eff := bench.QuickEffort()
	for i := 0; i < b.N; i++ {
		out := bench.Format(bench.Fig14LookupScaling(1<<16, 1<<28, eff))
		printFigure("Figure 14: cycles per lookup vs filter size (host)", out)
	}
}

func BenchmarkFig15BatchSpeedup(b *testing.B) {
	eff := bench.QuickEffort()
	for i := 0; i < b.N; i++ {
		out := bench.FormatFig15(bench.Fig15BatchSpeedup(eff))
		printFigure("Figure 15: batch-kernel speedups (host)", out)
	}
}

// ---- Ablation benches: one mechanism varied at a time ----

// BenchmarkAblationMagicVsPow2 isolates the magic-modulo overhead on the
// register-blocked filter (the paper's §5.2 "modest overhead" claim).
func BenchmarkAblationMagicVsPow2(b *testing.B) {
	for _, useMagic := range []bool{false, true} {
		name := "pow2"
		if useMagic {
			name = "magic"
		}
		b.Run(name, func(b *testing.B) {
			f, err := New(Config{Kind: BlockedBloom, WordBits: 64, BlockBits: 64,
				SectorBits: 64, Groups: 1, K: 4, Magic: useMagic}, 1<<20)
			if err != nil {
				b.Fatal(err)
			}
			r := rng.NewMT19937(1)
			for i := 0; i < 1<<16; i++ {
				f.Insert(r.Uint32())
			}
			probe := benchProbe()
			sel := make([]uint32, 0, len(probe))
			b.SetBytes(int64(4 * len(probe)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel = f.ContainsBatch(probe, sel[:0])
			}
		})
	}
}

// BenchmarkAblationBatchWidth measures the observable effect of the batch
// design: batched kernels vs one-key-at-a-time scalar calls (the kernel
// unroll width itself is the compile-time constant simd.Width).
func BenchmarkAblationBatchWidth(b *testing.B) {
	f, err := NewCacheSectorizedBloom(8, 2, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.NewMT19937(2)
	for i := 0; i < 1<<16; i++ {
		f.Insert(r.Uint32())
	}
	probe := benchProbe()
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(int64(4 * len(probe)))
		hits := 0
		for i := 0; i < b.N; i++ {
			for _, k := range probe {
				if f.Contains(k) {
					hits++
				}
			}
		}
		_ = hits
	})
	b.Run("batch", func(b *testing.B) {
		b.SetBytes(int64(4 * len(probe)))
		sel := make([]uint32, 0, len(probe))
		for i := 0; i < b.N; i++ {
			sel = f.ContainsBatch(probe, sel[:0])
		}
	})
}

// BenchmarkAblationCuckooBucket regenerates the b=2-beats-b=4 finding.
func BenchmarkAblationCuckooBucket(b *testing.B) {
	eff := bench.QuickEffort()
	for i := 0; i < b.N; i++ {
		s := bench.AblationCuckooBucket(1<<14, eff)
		printFigure("Ablation: cuckoo bucket size overhead at tw=2^14",
			bench.Format([]bench.Series{s}))
	}
}

// BenchmarkAblationSubwordSectors compares a register-blocked filter with
// and without sub-word sectorization (the paper's §6 outlier 5: no lookup
// effect, worse FPR — "not beneficial in practice").
func BenchmarkAblationSubwordSectors(b *testing.B) {
	configs := map[string]Config{
		"plain":   {Kind: BlockedBloom, WordBits: 32, BlockBits: 32, SectorBits: 32, Groups: 1, K: 4},
		"subword": {Kind: BlockedBloom, WordBits: 32, BlockBits: 32, SectorBits: 8, Groups: 4, K: 4},
	}
	for name, cfg := range configs {
		b.Run(name, func(b *testing.B) {
			f, err := New(cfg, 1<<18)
			if err != nil {
				b.Fatal(err)
			}
			r := rng.NewMT19937(3)
			for i := 0; i < 1<<14; i++ {
				f.Insert(r.Uint32())
			}
			b.Logf("model FPR at 16 bpk: %.5f", f.FPR(1<<14))
			probe := benchProbe()
			sel := make([]uint32, 0, len(probe))
			b.SetBytes(int64(4 * len(probe)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel = f.ContainsBatch(probe, sel[:0])
			}
		})
	}
}

// BenchmarkAblationClassicShortCircuit contrasts the classic filter's
// cheap short-circuiting negatives with its expensive positives — the
// t−l ≪ t+l asymmetry that §2 uses to motivate the simplified model.
func BenchmarkAblationClassicShortCircuit(b *testing.B) {
	f, err := bloom.New(bloom.Params{K: 8}, 1<<22)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.NewMT19937(4)
	inserted := make([]core.Key, 1<<16)
	for i := range inserted {
		inserted[i] = r.Uint32()
		f.Insert(inserted[i])
	}
	negatives := benchProbe()
	b.Run("negative-probes", func(b *testing.B) {
		hits := 0
		b.SetBytes(int64(4 * len(negatives)))
		for i := 0; i < b.N; i++ {
			for _, k := range negatives {
				if f.Contains(k) {
					hits++
				}
			}
		}
		_ = hits
	})
	b.Run("positive-probes", func(b *testing.B) {
		probe := inserted[:1024]
		hits := 0
		b.SetBytes(int64(4 * len(probe)))
		for i := 0; i < b.N; i++ {
			for _, k := range probe {
				if f.Contains(k) {
					hits++
				}
			}
		}
		_ = hits
	})
}

// ---- helpers ----

func benchProbe() []core.Key {
	r := rng.NewMT19937(0xBEEF)
	probe := make([]core.Key, 1024)
	for i := range probe {
		probe[i] = r.Uint32()
	}
	return probe
}

type benchBP struct {
	build []core.Key
	probe []core.Key
}

func benchWorkload(b *testing.B) *benchBP {
	b.Helper()
	r := rng.NewMT19937(42)
	bp := &benchBP{
		build: make([]core.Key, 1<<15),
		probe: make([]core.Key, 1<<17),
	}
	for i := range bp.build {
		bp.build[i] = r.Uint32() | 1
	}
	for i := range bp.probe {
		if r.Uint32n(20) == 0 { // σ = 0.05
			bp.probe[i] = bp.build[r.Uint32n(uint32(len(bp.build)))]
		} else {
			bp.probe[i] = r.Uint32() &^ 1
		}
	}
	return bp
}

type miniHT struct {
	keys []core.Key
	used []bool
	mask uint32
}

func benchHashTable(bp *benchBP) *miniHT {
	size := uint32(1)
	for float64(size)*0.7 < float64(len(bp.build)) {
		size <<= 1
	}
	ht := &miniHT{keys: make([]core.Key, size), used: make([]bool, size), mask: size - 1}
	for _, k := range bp.build {
		idx := k * 2654435761 & ht.mask
		for ht.used[idx] && ht.keys[idx] != k {
			idx = (idx + 1) & ht.mask
		}
		ht.keys[idx], ht.used[idx] = k, true
	}
	return ht
}

func (ht *miniHT) probe(k core.Key) bool {
	idx := k * 2654435761 & ht.mask
	for ht.used[idx] {
		if ht.keys[idx] == k {
			return true
		}
		idx = (idx + 1) & ht.mask
	}
	return false
}
