package model

// The classic (unblocked) Bloom baseline. Gated behind FullSpace: the
// paper includes it in sweeps to demonstrate it is never
// performance-optimal.
var classicSpec = kindSpec{
	name:   "classic",
	letter: 'S', // the SIMD classic baseline, per the paper's naming

	validate:  func(c Config) error { return c.Classic.Validate() },
	render:    func(c Config) string { return c.Classic.String() },
	fpr:       func(c Config, mBits, n uint64) float64 { return c.Classic.FPR(mBits, n) },
	usesMagic: func(c Config) bool { return c.Classic.Magic },
	hashBits:  func(c Config) float64 { return float64(c.Classic.K) * 32 },
	lines:     func(c Config) float64 { return float64(c.Classic.K) },
	cycles: func(m Machine, c Config, mBits uint64, simd bool) float64 {
		mem := m.memCost(float64(mBits) / 8)
		// Negative probes short-circuit after ≈2 bit tests at typical
		// loads; each probe is an independent hash + line access. No SIMD
		// (§7: the refill scheme never paid off).
		probes := 2.0
		if k := float64(c.Classic.K); k < probes {
			probes = k
		}
		cpu := 2.0 + probes*(2.0+m.modCost(c.Classic.Magic, 1))
		return cpu + probes*mem
	},
	enumerate: func(bool) []Config { return EnumerateClassic() },
	gate:      func(h EnumHints) bool { return h.FullSpace },
}
