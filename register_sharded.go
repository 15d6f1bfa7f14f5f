package perfilter

import (
	"perfilter/internal/magic"
	"perfilter/internal/registry"
)

// The sharded concurrent wrapper's envelope format (a header carrying the
// per-shard configuration followed by each shard's own wire payload).
// Wire-only: a Sharded is built around an inner kind via NewSharded, not
// through New.
var _ = registry.Register(registry.Descriptor{
	Kind:      registry.NoKind,
	Name:      "sharded",
	WireMagic: magic.WireSharded,
	Decode: func(data []byte) (registry.Filter, error) {
		s, err := UnmarshalSharded(data)
		if err != nil {
			return nil, err
		}
		return s, nil
	},
})
