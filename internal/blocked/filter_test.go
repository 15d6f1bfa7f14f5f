package blocked

import (
	"bytes"
	"encoding"
	"fmt"
	"testing"
	"testing/quick"

	"perfilter/internal/rng"
)

// allParams enumerates a representative slice of the paper's configuration
// space across every variant and both addressing modes.
func allParams() []Params {
	var ps []Params
	for _, useMagic := range []bool{false, true} {
		for _, w := range []uint32{32, 64} {
			// Register-blocked, k ∈ {1, 4, 8}.
			for _, k := range []uint32{1, 4, 8} {
				ps = append(ps, RegisterBlockedParams(w, k, useMagic))
			}
			// Plain blocked cache line.
			ps = append(ps, PlainBlockedParams(w, 512, 8, useMagic))
			ps = append(ps, PlainBlockedParams(w, 256, 5, useMagic))
			// Sectorized.
			ps = append(ps, SectorizedParams(w, 512, 512/w, useMagic))
			ps = append(ps, SectorizedParams(w, 256, 2*256/w, useMagic))
			// Cache-sectorized.
			ps = append(ps, CacheSectorizedParams(w, 512, 2, 8, useMagic))
			ps = append(ps, CacheSectorizedParams(w, 512, 4, 8, useMagic))
		}
		// Sub-word sectors (the paper's outlier case 5): B=W=32, S=8.
		ps = append(ps, Params{WordBits: 32, BlockBits: 32, SectorBits: 8,
			Z: 4, K: 4, Magic: useMagic})
		// 64-bit words with 32-bit sectors.
		ps = append(ps, Params{WordBits: 64, BlockBits: 512, SectorBits: 32,
			Z: 2, K: 8, Magic: useMagic})
	}
	return ps
}

func TestNoFalseNegatives(t *testing.T) {
	for _, p := range allParams() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			f, err := New(p, 1<<16)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.NewMT19937(42)
			keys := make([]uint32, 2000)
			for i := range keys {
				keys[i] = r.Uint32()
				f.Insert(keys[i])
			}
			for _, k := range keys {
				if !f.Contains(k) {
					t.Fatalf("false negative for key %d", k)
				}
			}
		})
	}
}

func TestBatchMatchesScalar(t *testing.T) {
	for _, p := range allParams() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			f, err := New(p, 1<<14)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.NewMT19937(7)
			for i := 0; i < 500; i++ {
				f.Insert(r.Uint32())
			}
			probe := make([]uint32, 1000)
			for i := range probe {
				probe[i] = r.Uint32()
			}
			sel := f.ContainsBatch(probe, nil)
			j := 0
			for i, k := range probe {
				want := f.Contains(k)
				got := j < len(sel) && sel[j] == uint32(i)
				if got != want {
					t.Fatalf("position %d: batch=%v scalar=%v", i, got, want)
				}
				if got {
					j++
				}
			}
			if j != len(sel) {
				t.Fatalf("selection vector has %d extra entries", len(sel)-j)
			}
		})
	}
}

func TestBatchAppendsToExistingSel(t *testing.T) {
	f, err := New(RegisterBlockedParams(32, 4, false), 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	f.Insert(1)
	f.Insert(2)
	pre := []uint32{111, 222}
	sel := f.ContainsBatch([]uint32{1, 2}, pre)
	if len(sel) != 4 || sel[0] != 111 || sel[1] != 222 || sel[2] != 0 || sel[3] != 1 {
		t.Fatalf("append semantics broken: %v", sel)
	}
}

func TestBatchReusesCapacity(t *testing.T) {
	f, _ := New(CacheSectorizedParams(64, 512, 2, 8, false), 1<<12)
	f.Insert(5)
	buf := make([]uint32, 0, 64)
	sel := f.ContainsBatch([]uint32{5}, buf)
	if &sel[:1][0] != &buf[:1][0] {
		t.Fatal("expected in-place reuse of the provided buffer")
	}
}

func TestEmptyFilterRejectsEverything(t *testing.T) {
	for _, p := range allParams() {
		f, err := New(p, 1<<12)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.NewSplitMix64(3)
		for i := 0; i < 200; i++ {
			if f.Contains(r.Uint32()) {
				t.Fatalf("%s: empty filter claimed containment", p)
			}
		}
		if sel := f.ContainsBatch([]uint32{1, 2, 3}, nil); len(sel) != 0 {
			t.Fatalf("%s: empty filter batch returned %v", p, sel)
		}
	}
}

func TestResetClears(t *testing.T) {
	f, _ := New(SectorizedParams(64, 512, 8, true), 1<<12)
	for i := uint32(0); i < 100; i++ {
		f.Insert(i)
	}
	if f.PopCount() == 0 {
		t.Fatal("expected set bits after inserts")
	}
	f.Reset()
	if f.PopCount() != 0 {
		t.Fatal("Reset left bits set")
	}
	if f.Contains(5) {
		t.Fatal("Contains true after Reset")
	}
}

func TestSizeRounding(t *testing.T) {
	// Power-of-two addressing rounds the block count up to a power of two.
	f, _ := New(PlainBlockedParams(64, 512, 8, false), 1000*512)
	if nb := f.NumBlocks(); nb != 1024 {
		t.Fatalf("pow2 blocks = %d, want 1024", nb)
	}
	// Magic addressing stays within 0.0134% of the request (Eq. 10).
	fm, _ := New(PlainBlockedParams(64, 512, 8, true), 1000*512)
	if nb := fm.NumBlocks(); nb < 1000 || float64(nb) > 1000*1.000134+1 {
		t.Fatalf("magic blocks = %d, want ≈1000", nb)
	}
	if fm.SizeBits() != uint64(fm.NumBlocks())*512 {
		t.Fatal("SizeBits inconsistent with block count")
	}
}

func TestMeasuredFPRMatchesModel(t *testing.T) {
	// Measured false-positive rate must track the analytic model within
	// sampling tolerance for each variant (the models are exact for the
	// idealized hash; the sink is close enough at these scales).
	cases := []Params{
		RegisterBlockedParams(32, 4, false),
		RegisterBlockedParams(64, 5, true),
		PlainBlockedParams(64, 512, 8, false),
		SectorizedParams(64, 512, 8, false),
		CacheSectorizedParams(64, 512, 2, 8, true),
	}
	const n = 1 << 15
	const probes = 1 << 17
	for _, p := range cases {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			f, err := New(p, n*12) // 12 bits per key
			if err != nil {
				t.Fatal(err)
			}
			r := rng.NewMT19937(99)
			inserted := make(map[uint32]bool, n)
			for len(inserted) < n {
				k := r.Uint32()
				if !inserted[k] {
					inserted[k] = true
					f.Insert(k)
				}
			}
			fp := 0
			tested := 0
			for tested < probes {
				k := r.Uint32()
				if inserted[k] {
					continue
				}
				tested++
				if f.Contains(k) {
					fp++
				}
			}
			measured := float64(fp) / float64(probes)
			model := f.FPR(n)
			// 3-sigma binomial tolerance plus 20% model slack.
			if measured > model*1.25+0.002 || measured < model*0.75-0.002 {
				t.Fatalf("measured FPR %.5f vs model %.5f", measured, model)
			}
		})
	}
}

func TestVariantClassification(t *testing.T) {
	cases := []struct {
		p Params
		v Variant
	}{
		{RegisterBlockedParams(32, 4, false), RegisterBlocked},
		{RegisterBlockedParams(64, 4, false), RegisterBlocked},
		{PlainBlockedParams(64, 512, 8, false), PlainBlocked},
		{SectorizedParams(64, 512, 8, false), Sectorized},
		{CacheSectorizedParams(64, 512, 2, 8, false), CacheSectorized},
	}
	for _, c := range cases {
		if got := c.p.Variant(); got != c.v {
			t.Fatalf("%+v classified as %v, want %v", c.p, got, c.v)
		}
	}
}

func TestWordsAccessed(t *testing.T) {
	if w := RegisterBlockedParams(64, 8, false).WordsAccessed(); w != 1 {
		t.Fatalf("register-blocked accesses %d words", w)
	}
	if w := CacheSectorizedParams(64, 512, 2, 8, false).WordsAccessed(); w != 2 {
		t.Fatalf("cache-sectorized z=2 accesses %d words", w)
	}
	if w := SectorizedParams(64, 512, 8, false).WordsAccessed(); w != 8 {
		t.Fatalf("sectorized 8-word block accesses %d words", w)
	}
}

func TestValidationErrors(t *testing.T) {
	bad := []Params{
		{WordBits: 16, BlockBits: 32, SectorBits: 32, Z: 1, K: 4},     // word size
		{WordBits: 32, BlockBits: 48, SectorBits: 16, Z: 1, K: 4},     // non-pow2 block
		{WordBits: 64, BlockBits: 32, SectorBits: 32, Z: 1, K: 4},     // block < word
		{WordBits: 32, BlockBits: 1024, SectorBits: 32, Z: 32, K: 16}, // block > cache line
		{WordBits: 32, BlockBits: 512, SectorBits: 4, Z: 1, K: 4},     // sector < 8 bits
		{WordBits: 32, BlockBits: 512, SectorBits: 1024, Z: 1, K: 4},  // sector > block
		{WordBits: 32, BlockBits: 512, SectorBits: 32, Z: 3, K: 6},    // z doesn't divide s
		{WordBits: 32, BlockBits: 512, SectorBits: 32, Z: 1, K: 8},    // z=1 with sectors
		{WordBits: 32, BlockBits: 512, SectorBits: 32, Z: 16, K: 0},   // k=0
		{WordBits: 32, BlockBits: 512, SectorBits: 32, Z: 16, K: 17},  // k>16... also not multiple
		{WordBits: 32, BlockBits: 512, SectorBits: 64, Z: 8, K: 12},   // k not multiple of z
		{WordBits: 32, BlockBits: 512, SectorBits: 64, Z: 2, K: 7},    // k not multiple of z
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d (%+v): expected validation error", i, p)
		}
		if _, err := New(p, 1<<12); err == nil {
			t.Fatalf("case %d: New accepted invalid params", i)
		}
	}
	if _, err := New(RegisterBlockedParams(32, 4, false), 0); err == nil {
		t.Fatal("New accepted zero size")
	}
}

func TestQuickNoFalseNegativeProperty(t *testing.T) {
	f, _ := New(CacheSectorizedParams(64, 512, 2, 8, true), 1<<14)
	if err := quick.Check(func(key uint32) bool {
		f.Insert(key)
		return f.Contains(key)
	}, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBatchSingleton(t *testing.T) {
	f, _ := New(RegisterBlockedParams(64, 4, true), 1<<14)
	r := rng.NewSplitMix64(11)
	for i := 0; i < 256; i++ {
		f.Insert(r.Uint32())
	}
	if err := quick.Check(func(key uint32) bool {
		sel := f.ContainsBatch([]uint32{key}, nil)
		return (len(sel) == 1) == f.Contains(key)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateInsertIdempotent(t *testing.T) {
	f, _ := New(SectorizedParams(32, 512, 16, false), 1<<12)
	f.Insert(42)
	bits := f.PopCount()
	f.Insert(42)
	if f.PopCount() != bits {
		t.Fatal("re-inserting a key changed the bit pattern")
	}
}

func TestBatchSizesIncludingTails(t *testing.T) {
	// Exercise the unrolled kernels' tail handling at the pipeline-group
	// boundaries (cacheUnroll = registerUnroll = 16) for every geometry:
	// InsertBatch must leave the words byte-identical to scalar Insert —
	// whether it runs the insert kernel or falls back — and ContainsBatch
	// must agree with Contains at every probe length up to two groups.
	lengths := []int{0, 1, 15, 16, 17, 31, 32, 33, 1000}
	kernels := 0
	for _, p := range allParams() {
		t.Run(p.String(), func(t *testing.T) {
			r := rng.NewSplitMix64(5)
			var batch Probe
			for _, n := range lengths {
				keys := make([]uint32, n)
				for i := range keys {
					keys[i] = r.Uint32()
				}
				scalar, _ := New(p, 1<<16)
				batch, _ = New(p, 1<<16)
				for _, k := range keys {
					scalar.Insert(k)
				}
				batch.InsertBatch(keys)
				want, _ := scalar.(encoding.BinaryMarshaler).MarshalBinary()
				got, _ := batch.(encoding.BinaryMarshaler).MarshalBinary()
				if !bytes.Equal(got, want) {
					t.Fatalf("%d keys: InsertBatch words differ from scalar Insert", n)
				}
			}
			if f, ok := batch.(*Filter[uint64]); ok && f.kernel == kernelCacheSectorizedZ2K8 {
				kernels++
			}
			for n := 0; n <= 33; n++ {
				probe := make([]uint32, n)
				for i := range probe {
					probe[i] = r.Uint32()
				}
				sel := batch.ContainsBatch(probe, nil)
				want := 0
				for _, k := range probe {
					if batch.Contains(k) {
						want++
					}
				}
				if len(sel) != want {
					t.Fatalf("size %d: batch found %d, scalar %d", n, len(sel), want)
				}
			}
		})
	}
	if kernels != 2 {
		t.Fatalf("%d configurations ran the insert kernel, want 2 (one per addressing mode)", kernels)
	}
}

func TestStringRendering(t *testing.T) {
	p := CacheSectorizedParams(64, 512, 2, 8, true)
	want := "bloom/cache-sectorized[B=512,S=64,z=2,k=8,magic]"
	if got := p.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	for _, v := range []Variant{RegisterBlocked, PlainBlocked, Sectorized, CacheSectorized} {
		if v.String() == "invalid" {
			t.Fatal("valid variant renders as invalid")
		}
	}
}

func TestFPRAccessorsAgree(t *testing.T) {
	p := CacheSectorizedParams(64, 512, 2, 8, false)
	f, _ := New(p, 1<<16)
	if f.FPR(1000) != p.FPR(f.SizeBits(), 1000) {
		t.Fatal("Probe.FPR disagrees with Params.FPR")
	}
}

func TestManyConfigsSmoke(t *testing.T) {
	// Broad smoke test over the paper's sweep dimensions: B ∈ {4..64}B,
	// S ∈ {1..64}B (≥1 byte), W ∈ {32,64}, valid (z, k) combos.
	count := 0
	for _, w := range []uint32{32, 64} {
		for _, B := range []uint32{32, 64, 128, 256, 512} {
			if B < w {
				continue
			}
			for _, S := range []uint32{8, 16, 32, 64, 128, 256, 512} {
				if S > B || B%S != 0 {
					continue
				}
				s := B / S
				for _, z := range []uint32{1, 2, 4, 8, 16} {
					if z > s || s%z != 0 || (z == 1 && s > 1) {
						continue
					}
					for _, k := range []uint32{1, 2, 4, 6, 8, 16} {
						if k%z != 0 {
							continue
						}
						p := Params{WordBits: w, BlockBits: B, SectorBits: S, Z: z, K: k}
						if p.Validate() != nil {
							continue
						}
						f, err := New(p, 1<<13)
						if err != nil {
							t.Fatalf("%s: %v", p, err)
						}
						f.Insert(123)
						f.Insert(456)
						if !f.Contains(123) || !f.Contains(456) {
							t.Fatalf("%s: false negative", p)
						}
						if got := f.ContainsBatch([]uint32{123, 456}, nil); len(got) != 2 {
							t.Fatalf("%s: batch lost keys: %v", p, got)
						}
						count++
					}
				}
			}
		}
	}
	if count < 40 {
		t.Fatalf("smoke test covered only %d configurations", count)
	}
}

func BenchmarkVariants(b *testing.B) {
	configs := []Params{
		RegisterBlockedParams(32, 4, false),
		RegisterBlockedParams(32, 4, true),
		SectorizedParams(32, 512, 16, false),
		CacheSectorizedParams(32, 512, 2, 8, false),
		CacheSectorizedParams(32, 512, 2, 8, true),
		DefaultParams(), // the specialised cache-sectorized kernel
		PlainBlockedParams(64, 512, 8, false),
	}
	for _, p := range configs {
		p := p
		b.Run(fmt.Sprintf("%s", p), func(b *testing.B) {
			f, _ := New(p, 1<<17) // 16 KiB, L1-resident
			r := rng.NewMT19937(1)
			for i := 0; i < 1<<13; i++ {
				f.Insert(r.Uint32())
			}
			probe := make([]uint32, 1024)
			for i := range probe {
				probe[i] = r.Uint32()
			}
			sel := make([]uint32, 0, 1024)
			b.SetBytes(int64(len(probe) * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel = f.ContainsBatch(probe, sel[:0])
			}
		})
	}
}
