package perfilter

import (
	"perfilter/internal/magic"
	"perfilter/internal/registry"
)

// The adaptive wrapper's envelope format: workload counters and the key
// log wrapped around an inner sharded envelope. Wire-only, like the
// sharded envelope it contains.
var _ = registry.Register(registry.Descriptor{
	Kind:      registry.NoKind,
	Name:      "adaptive",
	WireMagic: magic.WireAdaptive,
	Decode: func(data []byte) (registry.Filter, error) {
		f, err := UnmarshalAdaptive(data, AdaptiveOptions{})
		if err != nil {
			return nil, err
		}
		return f, nil
	},
})
