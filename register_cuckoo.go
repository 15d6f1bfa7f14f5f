package perfilter

import (
	"perfilter/internal/cuckoo"
	"perfilter/internal/model"
	"perfilter/internal/registry"
)

// The cuckoo filter; the (l=16, b=2) default is the paper's
// high-precision headline configuration.
var _ = registry.Register(registry.Descriptor{
	Kind:      model.KindCuckoo,
	Name:      "cuckoo",
	WireMagic: cuckoo.WireMagic,
	Default: model.Config{Kind: model.KindCuckoo, Cuckoo: cuckoo.Params{
		TagBits: 16, BucketSize: 2, Magic: true,
	}},
	New: func(mc model.Config, mBits uint64) (registry.Filter, error) {
		f, err := cuckoo.New(mc.Cuckoo, mBits)
		if err != nil {
			return nil, err
		}
		return f, nil
	},
	Decode: func(data []byte) (registry.Filter, error) {
		f, err := cuckoo.Unmarshal(data)
		if err != nil {
			return nil, err
		}
		return f, nil
	},
})
