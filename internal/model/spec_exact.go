package model

import (
	"perfilter/internal/core"
	"perfilter/internal/exact"
)

// The exact Robin Hood hash set: f = 0, ~75+ bits/key. Gated behind
// AllowExact, sized by key count (ExactBits), and exempt from the
// bits-per-key budget — sweeps admit it under SweepOpts.MaxExactBytes
// instead (Figure 1's "too large & expensive" cap).
var exactSpec = kindSpec{
	name:   "exact",
	letter: 'E',

	build: func(_ Config, mBits uint64) (core.Filter, error) {
		return exact.New(int(max(mBits/64, 1))), nil
	},
	validate: func(Config) error { return nil },
	render:   func(Config) string { return "exact[robin-hood]" },
	fpr:      func(Config, uint64, uint64) float64 { return 0 },
	hashBits: func(Config) float64 { return 32 },
	lines:    func(Config) float64 { return 1 },
	cycles: func(m Machine, c Config, mBits uint64, simd bool) float64 {
		// Robin-Hood probe: short chains, usually one line, no SIMD.
		return 6.0 + 1.3*m.memCost(float64(mBits)/8)
	},
	enumerate:    func(bool) []Config { return []Config{{Kind: KindExact}} },
	gate:         func(h EnumHints) bool { return h.AllowExact },
	sizeForKeys:  func(_ Config, n uint64) uint64 { return ExactBits(n) },
	budgetExempt: true,
}
