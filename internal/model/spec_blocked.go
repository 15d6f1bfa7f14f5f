package model

// The blocked-Bloom family (register-blocked, plain blocked, sectorized,
// cache-sectorized — distinguished by geometry). Always enumerated: it is
// one of the two families of the paper's headline sweep.
var blockedSpec = kindSpec{
	name:   "bloom",
	letter: 'B',

	validate:  func(c Config) error { return c.Bloom.Validate() },
	render:    func(c Config) string { return c.Bloom.String() },
	fpr:       func(c Config, mBits, n uint64) float64 { return c.Bloom.FPR(mBits, n) },
	granule:   func(c Config) uint32 { return c.Bloom.BlockBits },
	usesMagic: func(c Config) bool { return c.Bloom.Magic },
	hashBits:  blockedHashBits,
	lines:     func(Config) float64 { return 1 },
	cycles: func(m Machine, c Config, mBits uint64, simd bool) float64 {
		mem := m.memCost(float64(mBits) / 8)
		p := c.Bloom
		cpu := 2.0 + 0.06*blockedHashBits(c) + 1.0*float64(p.WordsAccessed())
		cpu += m.modCost(p.Magic, 1)
		if simd {
			cpu = cpu/m.simdSpeedup(p.WordBits, 1) + 0.5
		}
		return cpu + mem
	},
	enumerate: EnumerateBloom,
}

// blockedHashBits is the family's hash consumption: blocking reduces it
// from k·log2(m) to k·log2(S) + z·log2(sectors/z) past the fixed 32-bit
// block address. The cost function calls it directly rather than through
// Config.HashBits, whose table lookup would make kindSpecs depend on
// itself during package initialization.
func blockedHashBits(c Config) float64 {
	p := c.Bloom
	g := p.Sectors() / p.Z
	return 32 + float64(p.Z)*log2f(g) + float64(p.K)*log2f(p.SectorBits)
}
