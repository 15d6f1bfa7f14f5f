package perfilter

import (
	"perfilter/internal/exact"
	"perfilter/internal/model"
	"perfilter/internal/registry"
)

// The exact Robin Hood hash set: no false positives, ~64+ bits/key.
// Standalone construction keeps New's historical capacity-hint regime
// (mBits below 2^16 is a key-count hint, larger values are bits at 64
// bits per slot); shards always use the bits regime so a small per-shard
// split never flips into the hint interpretation.
var _ = registry.Register(registry.Descriptor{
	Kind:      model.KindExact,
	Name:      "exact",
	WireMagic: exact.WireMagic,
	Default:   model.Config{Kind: model.KindExact},
	New: func(mc model.Config, mBits uint64) (registry.Filter, error) {
		capacity := mBits
		if capacity >= 1<<16 {
			capacity /= 64
		}
		return exact.New(int(capacity)), nil
	},
	NewShard: func(mc model.Config, perShardBits uint64) (registry.Filter, error) {
		capacity := perShardBits / 64
		if capacity == 0 {
			capacity = 1
		}
		return exact.New(int(capacity)), nil
	},
	Decode: func(data []byte) (registry.Filter, error) {
		s, err := exact.Unmarshal(data)
		if err != nil {
			return nil, err
		}
		return s, nil
	},
})
