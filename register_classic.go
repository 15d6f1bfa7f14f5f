package perfilter

import (
	"perfilter/internal/bloom"
	"perfilter/internal/model"
	"perfilter/internal/registry"
)

// The classic (unblocked) Bloom baseline; the k=7 default matches the
// common 10-bits/key deployment.
var _ = registry.Register(registry.Descriptor{
	Kind:      model.KindClassicBloom,
	Name:      "classic",
	WireMagic: bloom.WireMagic,
	Default: model.Config{Kind: model.KindClassicBloom, Classic: bloom.Params{
		K: 7, Magic: true,
	}},
	New: func(mc model.Config, mBits uint64) (registry.Filter, error) {
		f, err := bloom.New(mc.Classic, mBits)
		if err != nil {
			return nil, err
		}
		return f, nil
	},
	Decode: func(data []byte) (registry.Filter, error) {
		f, err := bloom.Unmarshal(data)
		if err != nil {
			return nil, err
		}
		return f, nil
	},
})
