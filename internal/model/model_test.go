package model

import (
	"math"
	"strings"
	"testing"

	"perfilter/internal/blocked"
	"perfilter/internal/cuckoo"
)

func regBlocked(k uint32) Config {
	return Config{Kind: KindBlockedBloom, Bloom: blocked.RegisterBlockedParams(32, k, false)}
}

func cacheSect() Config {
	return Config{Kind: KindBlockedBloom, Bloom: blocked.CacheSectorizedParams(64, 512, 2, 8, false)}
}

func cuckoo16x2(magic bool) Config {
	return Config{Kind: KindCuckoo, Cuckoo: cuckoo.Params{TagBits: 16, BucketSize: 2, Magic: magic}}
}

func TestOverheadEq1(t *testing.T) {
	if Overhead(3, 0.01, 1000) != 13 {
		t.Fatal("ρ = tl + f·tw broken")
	}
}

func TestBeneficial(t *testing.T) {
	// ρ=10, σ=0.5, tw=100: (1−σ)·tw = 50 > 10 → beneficial.
	if !Beneficial(10, 0.5, 100) {
		t.Fatal("expected beneficial")
	}
	// σ=1 (no negatives): never beneficial.
	if Beneficial(0.1, 1.0, 1e9) {
		t.Fatal("σ=1 must never be beneficial")
	}
}

func TestWorkPerTuple(t *testing.T) {
	// σ′ = σ + f = 0.6; tw′ = 0.4·2 + 0.6·(3+100) = 62.6.
	got := WorkPerTuple(2, 3, 100, 0.5, 0.1)
	if math.Abs(got-62.6) > 1e-9 {
		t.Fatalf("tw′ = %v, want 62.6", got)
	}
	// σ′ clamps at 1.
	got = WorkPerTuple(2, 3, 100, 0.95, 0.2)
	if math.Abs(got-103) > 1e-9 {
		t.Fatalf("clamped tw′ = %v, want 103", got)
	}
}

func TestActualBitsRounding(t *testing.T) {
	c := cacheSect() // pow2, 512-bit blocks
	if got := c.ActualBits(1000 * 512); got != 1024*512 {
		t.Fatalf("pow2 rounding: %d", got)
	}
	cm := c
	cm.Bloom.Magic = true
	desired := uint64(1000 * 512)
	got := cm.ActualBits(desired)
	if got < desired || got > uint64(float64(desired)*1.001) {
		t.Fatalf("magic rounding: %d", got)
	}
	ck := cuckoo16x2(false) // granule = 32 bits
	if g := ck.GranuleBits(); g != 32 {
		t.Fatalf("cuckoo granule %d", g)
	}
}

func TestExactBits(t *testing.T) {
	m := ExactBits(1000)
	// 1000/0.85 ≈ 1177 → 2048 slots → 2048·64 bits.
	if m != 2048*64 {
		t.Fatalf("ExactBits(1000) = %d", m)
	}
}

func TestCostRegisterBlockedCheapest(t *testing.T) {
	// §6: register-blocked filters are the best choice for very low tw —
	// they must have the lowest lookup cost at cache-resident sizes.
	m := SKX()
	small := uint64(16 << 13) // 16 KiB in bits
	rb := m.LookupCycles(regBlocked(4), small)
	cs := m.LookupCycles(cacheSect(), small)
	ck := m.LookupCycles(cuckoo16x2(false), small)
	if !(rb < cs && cs < ck) {
		t.Fatalf("ordering violated: rb=%.2f cs=%.2f cuckoo=%.2f", rb, cs, ck)
	}
}

func TestCostCuckooPaysTwoLines(t *testing.T) {
	// Fig. 14: at DRAM sizes the cuckoo's two cache-line accesses roughly
	// double its cost relative to one-line blocked Bloom filters.
	m := SKX()
	big := uint64(256) << 23 // 256 MiB in bits
	cs := m.LookupCycles(cacheSect(), big)
	ck := m.LookupCycles(cuckoo16x2(false), big)
	ratio := ck / cs
	if ratio < 1.5 || ratio > 2.5 {
		t.Fatalf("DRAM cuckoo/bloom ratio %.2f, want ≈2", ratio)
	}
}

func TestCostGrowsWithSize(t *testing.T) {
	m := SKX()
	cfg := cacheSect()
	prev := 0.0
	for _, bits := range []uint64{1 << 15, 1 << 20, 1 << 25, 1 << 30, 1 << 33} {
		c := m.LookupCycles(cfg, bits)
		if c < prev {
			t.Fatalf("cost decreased at %d bits: %v < %v", bits, c, prev)
		}
		prev = c
	}
}

func TestSIMDSpeedupPlatformOrdering(t *testing.T) {
	// Fig. 15: AVX-512 platforms see the largest batch speedups; Ryzen sees
	// almost none (gather-bound).
	cfg := regBlocked(4)
	small := uint64(16 << 13)
	speedup := func(m Machine) float64 {
		return m.ScalarLookupCycles(cfg, small) / m.LookupCycles(cfg, small)
	}
	skx, xeon, ryzen := speedup(SKX()), speedup(Xeon()), speedup(Ryzen())
	if !(skx > xeon && xeon > ryzen) {
		t.Fatalf("speedups skx=%.1f xeon=%.1f ryzen=%.1f violate platform order",
			skx, xeon, ryzen)
	}
	if ryzen > 2.0 {
		t.Fatalf("Ryzen speedup %.1f; paper reports <1.5×", ryzen)
	}
	if skx < 4 {
		t.Fatalf("SKX speedup %.1f implausibly low", skx)
	}
}

func TestKNLCuckooPenalty(t *testing.T) {
	// §6.1: KNL's cuckoo suffers from mixing AVX2/AVX-512 (no AVX-512BW);
	// its cuckoo speedup must trail its Bloom speedup by a wide margin.
	m := KNL()
	small := uint64(16 << 13)
	bloomSpeedup := m.ScalarLookupCycles(regBlocked(4), small) / m.LookupCycles(regBlocked(4), small)
	cuckooSpeedup := m.ScalarLookupCycles(cuckoo16x2(false), small) / m.LookupCycles(cuckoo16x2(false), small)
	if cuckooSpeedup > bloomSpeedup*0.75 {
		t.Fatalf("KNL cuckoo speedup %.1f not penalized vs bloom %.1f",
			cuckooSpeedup, bloomSpeedup)
	}
}

func TestMagicCostsMoreThanPow2(t *testing.T) {
	m := SKX()
	small := uint64(1 << 20)
	if m.LookupCycles(cuckoo16x2(true), small) <= m.LookupCycles(cuckoo16x2(false), small) {
		t.Fatal("magic modulo should cost more than pow2")
	}
}

func TestEnumerationsValid(t *testing.T) {
	for _, full := range []bool{false, true} {
		configs := DefaultConfigs(full)
		if len(configs) == 0 {
			t.Fatal("empty enumeration")
		}
		for _, c := range configs {
			if err := c.Validate(); err != nil {
				t.Fatalf("invalid enumerated config %s: %v", c, err)
			}
		}
	}
	small := len(DefaultConfigs(false))
	big := len(DefaultConfigs(true))
	if big <= small {
		t.Fatalf("full enumeration (%d) not larger than default (%d)", big, small)
	}
	if small < 40 {
		t.Fatalf("default enumeration suspiciously small: %d", small)
	}
	t.Logf("default configs: %d, full configs: %d", small, big)
}

func TestEnumerationCoversAllVariants(t *testing.T) {
	variants := map[blocked.Variant]bool{}
	for _, c := range EnumerateBloom(false) {
		variants[c.Bloom.Variant()] = true
	}
	for _, v := range []blocked.Variant{
		blocked.RegisterBlocked, blocked.PlainBlocked,
		blocked.Sectorized, blocked.CacheSectorized,
	} {
		if !variants[v] {
			t.Fatalf("default enumeration missing variant %v", v)
		}
	}
}

// computeTestSkyline runs a small sweep shared by the skyline tests.
func computeTestSkyline(t *testing.T) *Skyline {
	t.Helper()
	grid := DefaultGrid(false)
	sky := ComputeSkyline(grid, DefaultConfigs(false), SKX(), DefaultSweepOpts())
	if len(sky.Cells) != len(grid.Ns) {
		t.Fatal("cell grid shape mismatch")
	}
	return sky
}

func TestSkylineBloomWinsHighThroughput(t *testing.T) {
	// The paper's headline: at low tw (high throughput), blocked Bloom
	// wins everywhere.
	sky := computeTestSkyline(t)
	for ni := range sky.Grid.Ns {
		kind, best := sky.Cells[ni][0].Winner(KindBlockedBloom, KindCuckoo) // tw = 2^4
		if math.IsInf(best.Rho, 1) {
			t.Fatalf("n index %d: no feasible config", ni)
		}
		if kind != KindBlockedBloom {
			t.Fatalf("n index %d: %v wins at tw=16, expected bloom", ni, kind)
		}
	}
}

func TestSkylineCuckooWinsLowThroughput(t *testing.T) {
	// At the largest tw (2^31) the precision advantage dominates: Cuckoo
	// must win for small and mid problem sizes.
	sky := computeTestSkyline(t)
	last := len(sky.Grid.Tws) - 1
	cuckooWins := 0
	for ni := range sky.Grid.Ns {
		kind, _ := sky.Cells[ni][last].Winner(KindBlockedBloom, KindCuckoo)
		if kind == KindCuckoo {
			cuckooWins++
		}
	}
	if cuckooWins < len(sky.Grid.Ns)/2 {
		t.Fatalf("cuckoo wins only %d/%d rows at tw=2^31", cuckooWins, len(sky.Grid.Ns))
	}
}

func TestSkylineCrossoverGrowsWithN(t *testing.T) {
	// §6: "the tw-range in which the Bloom filters dominate increases with
	// the problem size" — larger filters make the cuckoo's cache misses
	// costlier. Compare the crossover at small vs large n.
	sky := computeTestSkyline(t)
	cross := sky.CrossoverTw()
	first, last := cross[0], cross[len(cross)-1]
	if math.IsInf(first, 1) {
		t.Fatal("no crossover at smallest n")
	}
	if !(last >= first) {
		t.Fatalf("crossover shrank with n: %g -> %g", first, last)
	}
	if last < first*4 {
		t.Fatalf("crossover barely grew: %g -> %g (paper: ~10^3 to ~10^5)", first, last)
	}
}

func TestSkylineClassicNeverOptimal(t *testing.T) {
	// §2: "A SIMD version of classic Bloom filters was implemented, but it
	// was never performance optimal."
	grid := DefaultGrid(false)
	configs := append(DefaultConfigs(false), EnumerateClassic()...)
	sky := ComputeSkyline(grid, configs, SKX(), DefaultSweepOpts())
	for ni := range grid.Ns {
		for ti := range grid.Tws {
			kind, best := sky.Cells[ni][ti].Winner(
				KindBlockedBloom, KindClassicBloom, KindCuckoo)
			if kind == KindClassicBloom && !math.IsInf(best.Rho, 1) {
				t.Fatalf("classic Bloom optimal at n=%d tw=%g",
					grid.Ns[ni], grid.Tws[ti])
			}
		}
	}
}

func TestSkylineBudgetRespected(t *testing.T) {
	sky := computeTestSkyline(t)
	opts := DefaultSweepOpts()
	for ni, n := range sky.Grid.Ns {
		for ti := range sky.Grid.Tws {
			for kind, b := range sky.Cells[ni][ti].ByKind {
				if math.IsInf(b.Rho, 1) || Kind(kind) == KindExact {
					continue
				}
				bpk := float64(b.MBits) / float64(n)
				if bpk > opts.MaxBitsPerKey*1.001 || bpk < opts.MinBitsPerKey*0.99 {
					t.Fatalf("winner outside budget: %.2f bits/key (%s)", bpk, b.Config)
				}
			}
		}
	}
}

func TestSkylineExactRegion(t *testing.T) {
	// Fig. 1: with an exact structure allowed (within a footprint cap),
	// it wins the small-n / large-tw corner and never the low-tw corner.
	grid := DefaultGrid(false)
	opts := DefaultSweepOpts()
	opts.MaxExactBytes = 14 << 20 // L3-resident exact structures only
	sky := ComputeSkyline(grid, DefaultConfigs(false), SKX(), opts)
	kind, _ := sky.Cells[0][len(grid.Tws)-1].Winner()
	if kind != KindExact {
		t.Fatalf("small-n/high-tw corner won by %v, expected exact", kind)
	}
	kind, _ = sky.Cells[0][0].Winner()
	if kind == KindExact {
		t.Fatal("exact structure won the high-throughput corner")
	}
	// Large n: exact structure exceeds the cap and must be infeasible.
	lastN := len(grid.Ns) - 1
	if !math.IsInf(sky.Cells[lastN][0].ByKind[KindExact].Rho, 1) {
		t.Fatal("oversized exact structure was not excluded")
	}
}

func TestSkylineSpeedupRange(t *testing.T) {
	// Fig. 11a: speedups of the winning family reach >1.5× somewhere and
	// stay finite.
	sky := computeTestSkyline(t)
	maxSpeedup := 0.0
	for ni := range sky.Grid.Ns {
		for ti := range sky.Grid.Tws {
			s := sky.Cells[ni][ti].Speedup()
			if s < 1 {
				t.Fatalf("speedup %v < 1", s)
			}
			if s > maxSpeedup && !math.IsInf(s, 1) {
				maxSpeedup = s
			}
		}
	}
	if maxSpeedup < 1.5 {
		t.Fatalf("max speedup %.2f; paper reports up to 3-5×", maxSpeedup)
	}
}

func TestRenderTypeMap(t *testing.T) {
	sky := computeTestSkyline(t)
	out := sky.RenderTypeMap()
	if !strings.Contains(out, "B") || !strings.Contains(out, "C") {
		t.Fatalf("type map missing regions:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines != len(sky.Grid.Ns)+1 {
		t.Fatalf("map has %d lines, want %d", lines, len(sky.Grid.Ns)+1)
	}
}

func TestGridShapes(t *testing.T) {
	g := DefaultGrid(false)
	if len(g.Ns) != 18 || len(g.Tws) != 28 {
		t.Fatalf("default grid %dx%d, want 18x28", len(g.Ns), len(g.Tws))
	}
	gf := DefaultGrid(true)
	if len(gf.Ns) != 18*16 {
		t.Fatalf("full grid has %d n-values, want 288", len(gf.Ns))
	}
	if g.Ns[0] != 1024 {
		t.Fatalf("grid starts at %d, want 2^10", g.Ns[0])
	}
	if g.Tws[0] != 16 || g.Tws[27] != math.Pow(2, 31) {
		t.Fatal("tw endpoints wrong")
	}
}

func TestPresetsTable1(t *testing.T) {
	ps := Presets()
	if len(ps) != 4 {
		t.Fatalf("%d presets, want 4", len(ps))
	}
	knl := ps[1]
	if knl.L3 != 0 {
		t.Fatal("KNL must have no L3 (Table 1)")
	}
	if ps[2].SIMDBits != 512 || ps[0].SIMDBits != 256 {
		t.Fatal("SIMD widths disagree with Table 1")
	}
	for _, m := range ps {
		if m.LookupCycles(regBlocked(4), 1<<15) <= 0 {
			t.Fatalf("%s: non-positive cost", m.Name())
		}
	}
}

func TestHostMachine(t *testing.T) {
	m := HostMachine()
	if m.L1 == 0 || m.Threads < 1 {
		t.Fatal("host machine not populated")
	}
	if c := m.LookupCycles(cacheSect(), 1<<20); c <= 0 {
		t.Fatal("host cost model broken")
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindBlockedBloom: "bloom", KindClassicBloom: "classic",
		KindCuckoo: "cuckoo", KindExact: "exact", KindXor: "xor",
	} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q", k, k.String())
		}
	}
}

// TestEveryKindRegistered is the spec-table regression test: every
// Kind below numKinds must have a String() name, at least one enumerable
// configuration under some hint set, and a positive cost-model entry —
// so a new family cannot be added to the enum without a kindSpecs entry.
func TestEveryKindRegistered(t *testing.T) {
	allHints := EnumHints{FullSpace: true, AllowExact: true, ReadMostly: true}
	kinds := EnumerableKinds(allHints)
	if len(kinds) != NumKinds() {
		t.Fatalf("EnumerableKinds(all) returned %d kinds, want %d", len(kinds), NumKinds())
	}
	byKind := make(map[Kind][]Config)
	for _, cfg := range ConfigsFor(kinds, true) {
		byKind[cfg.Kind] = append(byKind[cfg.Kind], cfg)
	}
	m := SKX()
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "invalid" {
			t.Fatalf("Kind(%d) has no String() name", k)
		}
		cfgs := byKind[k]
		if len(cfgs) == 0 {
			t.Fatalf("kind %s has no enumerable configuration", k)
		}
		for _, cfg := range cfgs[:1] {
			if err := cfg.Validate(); err != nil {
				t.Fatalf("kind %s: enumerated config invalid: %v", k, err)
			}
			if tl := m.LookupCycles(cfg, 1<<20); tl <= 0 {
				t.Fatalf("kind %s has no cost-model entry (tl = %v)", k, tl)
			}
		}
	}
}

// TestSkylineXorRegion: with the xor family enabled (a read-mostly
// workload), the extended type map must contain a non-empty xor region —
// at high tw the family's 2^-w precision at ~1.23·w bits/key beats both
// mutable families once the rebuild surcharge has amortized away.
func TestSkylineXorRegion(t *testing.T) {
	grid := DefaultGrid(false)
	kinds := EnumerableKinds(EnumHints{ReadMostly: true})
	sky := ComputeSkyline(grid, ConfigsFor(kinds, false), SKX(), DefaultSweepOpts())
	xorCells := 0
	for ni := range sky.Cells {
		for ti := range sky.Cells[ni] {
			kind, best := sky.Cells[ni][ti].Winner(kinds...)
			if kind == KindXor && !math.IsInf(best.Rho, 1) {
				xorCells++
				if best.Config.Kind != KindXor || best.MBits == 0 {
					t.Fatalf("xor cell carries wrong best: %+v", best)
				}
			}
		}
	}
	if xorCells == 0 {
		t.Fatal("no cell won by the xor family; the skyline's xor region is empty")
	}
	m := sky.RenderTypeMapKinds(kinds...)
	if !strings.Contains(m, "X") {
		t.Fatalf("extended type map has no X region:\n%s", m)
	}
	// The build surcharge must price xor out of the lowest-tw column:
	// at tw = 2^4 one rebuild per ~16 probes/key dominates ρ.
	for ni := range sky.Cells {
		if kind, _ := sky.Cells[ni][0].Winner(kinds...); kind == KindXor {
			t.Fatal("xor won a tw=2^4 cell; the rebuild surcharge is not being applied")
		}
	}
}

func BenchmarkSkylineDefault(b *testing.B) {
	grid := DefaultGrid(false)
	configs := DefaultConfigs(false)
	cost := SKX()
	opts := DefaultSweepOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeSkyline(grid, configs, cost, opts)
	}
}
