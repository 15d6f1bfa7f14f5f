package model

import (
	"perfilter/internal/core"
	"perfilter/internal/cuckoo"
	"perfilter/internal/fpr"
)

// The cuckoo-filter family. Always enumerated (the paper's other headline
// family); feasibility enforces the practical load-factor limit per
// bucket size (§4).
var cuckooSpec = kindSpec{
	name:   "cuckoo",
	letter: 'C',

	build: func(c Config, mBits uint64) (core.Filter, error) {
		return asFilter(cuckoo.New(c.Cuckoo, mBits))
	},
	validate: func(c Config) error { return c.Cuckoo.Validate() },
	render:   func(c Config) string { return c.Cuckoo.String() },
	fpr:      func(c Config, mBits, n uint64) float64 { return c.Cuckoo.FPR(mBits, n) },
	feasible: func(c Config, mBits, n uint64) bool {
		alpha := float64(c.Cuckoo.TagBits) * float64(n) / float64(mBits)
		return alpha <= fpr.CuckooMaxLoad(c.Cuckoo.BucketSize)
	},
	granule:   func(c Config) uint32 { return c.Cuckoo.TagBits * c.Cuckoo.BucketSize },
	usesMagic: func(c Config) bool { return c.Cuckoo.Magic },
	hashBits:  cuckooHashBits,
	lines:     func(c Config) float64 { return 2 },
	cycles: func(m Machine, c Config, mBits uint64, simd bool) float64 {
		mem := m.memCost(float64(mBits) / 8)
		p := c.Cuckoo
		// Tag hash + alternate index + two SWAR bucket compares.
		cpu := 3.0 + 0.06*cuckooHashBits(c) + 1.5
		cpu += m.modCost(p.Magic, 2) // two bucket indexes (Eq. 11)
		if simd {
			cpu = cpu/m.simdSpeedup(32, m.CuckooSIMDPenalty) + 1.0
		}
		return cpu + 2*mem
	},
	enumerate: EnumerateCuckoo,
}

// cuckooHashBits is the bucket address plus the tag; see blockedHashBits
// for why the cost function calls it directly.
func cuckooHashBits(c Config) float64 { return 32 + float64(c.Cuckoo.TagBits) }
