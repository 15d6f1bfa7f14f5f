package model

import (
	"perfilter/internal/core"
	"perfilter/internal/xor"
)

// The immutable xor/fuse family (xor8, xor16 and their binary-fuse
// layouts). Gated behind ReadMostly — a build-once table absorbs writes
// only through a key-log rebuild — sized by key count
// (xor.Params.SizeForKeys), and carrying the rebuild surcharge that
// amortizes re-peeling over the lookup budget.
var xorSpec = kindSpec{
	name:   "xor",
	letter: 'X',

	build: func(c Config, mBits uint64) (core.Filter, error) {
		return asFilter(xor.New(c.Xor, mBits))
	},
	validate: func(c Config) error { return c.Xor.Validate() },
	render:   func(c Config) string { return c.Xor.String() },
	fpr:      func(c Config, mBits, n uint64) float64 { return c.Xor.FPR() },
	// Peeling needs the layout's space factor (≈1.23 slots/key, ≈1.13
	// fuse); below that the build fails for any seed.
	feasible: func(c Config, mBits, n uint64) bool {
		return mBits >= c.Xor.SizeForKeys(n)
	},
	hashBits: xorHashBits,
	lines:    xorLines,
	cycles: func(m Machine, c Config, mBits uint64, simd bool) float64 {
		mem := m.memCost(float64(mBits) / 8)
		// One 64-bit mix, three multiply-shift reductions, three loads
		// and an xor-compare; the three loads are independent, so the
		// batched kernel pipelines them like a gather.
		cpu := 2.0 + 0.06*xorHashBits(c) + 1.5
		if simd {
			cpu = cpu/m.simdSpeedup(32, 1.0) + 0.5
		}
		return cpu + xorLines(c)*mem
	},
	enumerate:      func(bool) []Config { return EnumerateXor() },
	gate:           func(h EnumHints) bool { return h.ReadMostly },
	sizeForKeys:    func(c Config, n uint64) uint64 { return c.Xor.SizeForKeys(n) },
	buildSurcharge: XorBuildSurcharge,
}

// xorHashBits: one 64-bit mix yields all three slot addresses and the
// fingerprint. See blockedHashBits for why the cost function calls it and
// xorLines directly.
func xorHashBits(Config) float64 { return 64 }

// xorLines: three independent table thirds; the fuse layout's adjacent
// small segments stay within one or two lines in practice — modelled as
// two.
func xorLines(c Config) float64 {
	if c.Xor.Fuse {
		return 2
	}
	return 3
}
