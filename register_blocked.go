package perfilter

import (
	"perfilter/internal/blocked"
	"perfilter/internal/model"
	"perfilter/internal/registry"
)

// The blocked-Bloom family: register-blocked, plain blocked, sectorized
// and cache-sectorized variants, distinguished by Config geometry. The
// default is the paper's cache-sectorized headline (B=512, S=64, z=2,
// k=8). The "" alias makes it the server's default create kind.
var _ = registry.Register(registry.Descriptor{
	Kind:      model.KindBlockedBloom,
	Name:      "bloom",
	Aliases:   []string{""},
	WireMagic: blocked.WireMagic,
	Default:   model.Config{Kind: model.KindBlockedBloom, Bloom: blocked.DefaultParams()},
	New: func(mc model.Config, mBits uint64) (registry.Filter, error) {
		return blocked.New(mc.Bloom, mBits)
	},
	Decode: func(data []byte) (registry.Filter, error) {
		return blocked.Unmarshal(data)
	},
})
