package perfilter

import (
	"fmt"

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
		f, err := blocked.New(mc.Bloom, mBits)
		if err != nil {
			return nil, err
		}
		return &blockedAdapter{f}, nil
	},
	Decode: func(data []byte) (registry.Filter, error) {
		f, err := blocked.Unmarshal(data)
		if err != nil {
			return nil, err
		}
		return &blockedAdapter{f}, nil
	},
	Marshal: func(f registry.Filter) ([]byte, error) {
		m, ok := f.(*blockedAdapter).f.(marshaler)
		if !ok {
			return nil, fmt.Errorf("perfilter: filter does not serialize")
		}
		return m.MarshalBinary()
	},
	Owns: func(f registry.Filter) bool {
		_, ok := f.(*blockedAdapter)
		return ok
	},
	Mutable: true,
})
