package perfilter

import (
	"perfilter/internal/model"
	"perfilter/internal/registry"
	"perfilter/internal/xor"
)

// The immutable xor/fuse family: build-once (model.KindMutable is false —
// the adaptive control loop migrates back to a mutable family when writes
// resume) and a sharded.Sealer (the sharded wrapper solves staged shards
// after a rotation's fill). The default is the 8-bit classic layout; no
// magic addressing — the table is sized by key count, not by an
// addressable budget.
var _ = registry.Register(registry.Descriptor{
	Kind:      model.KindXor,
	Name:      "xor",
	WireMagic: xor.WireMagic,
	Default: model.Config{Kind: model.KindXor, Xor: xor.Params{
		FingerprintBits: 8,
	}},
	New: func(mc model.Config, mBits uint64) (registry.Filter, error) {
		f, err := xor.New(mc.Xor, mBits)
		if err != nil {
			return nil, err
		}
		return f, nil
	},
	Decode: func(data []byte) (registry.Filter, error) {
		f, err := xor.Unmarshal(data)
		if err != nil {
			return nil, err
		}
		return f, nil
	},
})
